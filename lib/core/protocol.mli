(** The Shasta coherence protocol engine (Base and SMP variants).

    One implementation serves both variants: Base-Shasta is the
    degenerate case of one processor per coherence node, in which the
    downgrade machinery naturally sends zero messages and the SMP-only
    costs (per-line locking, private-table upgrades, the atomic
    float-load check) are not charged.

    All message handling is polling-based: a processor handles incoming
    messages only inside {!poll}, which Dsm calls at simulated loop
    backedges and which every stall loop calls while waiting — never
    between an inline check and its corresponding load or store, which is
    the invariant that makes the downgrade protocol race-free (§3.3).

    The per-block coherence handlers and what an access decides after
    its inline check fails are {!Coherence}'s, instantiated here over
    the machine: this module supplies their substrate (the node's tables
    and image, the network, cycle charges, observer hooks and
    statistics) and keeps what is its own — the sync messages, the
    stalls and retries of the miss paths, batching and the drain. The
    model checker runs the same handlers and miss paths. *)

exception
  Protocol_violation of {
    pid : int;  (** processor dispatching when the violation was found *)
    block : int;
    state : Shasta_mem.State_table.base;  (** its node's state for [block] *)
    detail : string;
  }
(** An impossible protocol configuration was reached while dispatching a
    message — e.g. a data reply with no outstanding miss, a downgrade
    message with no downgrade in progress, or a request forwarded to an
    owner with no copy. Replaces what would otherwise be a blind
    assertion failure; carries enough context to diagnose the state
    machine without a debugger. *)

type ctx
(** Per-processor protocol context, valid for the duration of a run. *)

val make_ctx : Machine.t -> Shasta_sim.Engine.proc -> ctx
val machine : ctx -> Machine.t
val pid : ctx -> int
val node : ctx -> int
val proc_state : ctx -> Machine.proc_state
val engine_proc : ctx -> Shasta_sim.Engine.proc
val timing : ctx -> Timing.t
val is_smp : ctx -> bool

val charge : ctx -> int -> unit
(** Charge cycles to the context's current accounting category without a
    scheduling point. *)

val charge_yield : ctx -> int -> unit
(** Charge cycles and yield to the scheduler. *)

val with_category : ctx -> Stats.category -> (unit -> 'a) -> 'a
(** Run a thunk with cycle charges attributed to the given category. *)

val poll : ctx -> unit
(** Handle every message that has arrived at this processor. *)

val op_tick : ctx -> unit
(** Account one simulated memory access; every
    [timing.poll_interval_ops] accesses this charges the polling cost,
    polls, and yields — the simulated loop backedge. *)

val node_image : ctx -> Shasta_mem.Image.t
(** This processor's node's copy of the shared heap (for checked raw
    access from Dsm once a check has succeeded). *)

val check_table : ctx -> Shasta_mem.State_table.t
(** The table consulted by inline checks: the processor's private table
    under SMP-Shasta, the node's (= processor's) shared table under
    Base-Shasta. *)

val load_miss : ctx -> addr:int -> [ `Valid | `Retry ]
(** Flag-based load check failed at [addr]. {!Coherence} handles false
    misses, private-state upgrades, merging with pending misses, and
    real fetches; this stalls in the [Read] category for what it
    returns. [`Valid] means the bytes at [addr] are application data
    right now and the caller must consume them without an intervening
    scheduling point; [`Retry] means re-run the check. *)

val store_miss : ctx -> addr:int -> len:int -> (Shasta_mem.Image.t -> unit) -> unit
(** Store check failed for the [len] bytes at [addr]. Applies the write
    (passed as a continuation on the node image) at the protocol-correct
    moment, which {!Coherence} decides; non-blocking — returns as soon
    as the store is recorded, stalling only for a lingering miss entry
    to retire or on the outstanding-store limit. *)

type batch_token

val batch_begin :
  ctx -> (int * int * Shasta_mem.State_table.base) list -> batch_token
(** Batched check over (addr, len, needed-state) ranges (§3.4.4). Marks
    every covered line as batch-active {e before} fetching (so blocks
    invalidated while the handler waits keep their bytes in memory for
    the batched loads — the deferred-flag mechanism), then fetches each
    insufficient line once. The caller performs raw accesses and must
    call {!batch_end}. *)

val batch_end : ctx -> batch_token -> unit
(** Re-serializes batched stores whose block lost exclusivity during the
    batch (pushing the declared write ranges back through the
    non-blocking store path), unmarks the lines, re-aligns private
    state, and performs deferred invalid-flag writes. *)

val lock_acquire : ctx -> int -> unit
(** Application lock acquire (stalls in the [Sync] category). Also
    enforces the acquire-side stall while any block on the node has a
    deferred flag write pending (§3.4.4 footnote). *)

val lock_release : ctx -> int -> unit
(** Release semantics: drains this processor's (node's, under SMP)
    outstanding stores, then releases the lock. *)

val barrier_wait : ctx -> int -> unit
(** Release + arrive + wait for the barrier generation to advance. When
    [cfg.sanitize > 0] the leaving processor additionally sweeps the
    whole machine with {!Inspect.report}, raising {!Inspect.Violation}
    on any failure; the sweep charges no cycles. *)

val drain : ctx -> unit
(** Post-application service loop: poll until the whole machine is
    quiescent. Cycle charges during the drain are not recorded in the
    statistics (the application has already finished). *)
