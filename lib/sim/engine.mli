(** Deterministic cooperative multiprocessor.

    Each simulated processor runs as an effect-handler coroutine with its
    own virtual cycle clock. The scheduler always resumes the runnable
    processor with the smallest clock (ties broken by processor id), so a
    run is a deterministic function of the program and its seeds. A run
    executes entirely on the calling domain: its processors interleave,
    never overlap.

    Run-ahead: when resuming a processor the scheduler hands it a
    {e horizon} — the earliest virtual time at which any other processor
    could affect it: the minimum over its in-flight message arrivals
    ([arrival_hint]) and, for every other runnable processor, that
    processor's clock plus the pair's [lookahead] slack (0 when the two
    share mutable state and may interact at any instant; the minimum
    message transfer time when the network is the only path between
    them). Scheduling points strictly below the horizon elide the yield
    effect entirely: nothing another processor does could have become
    visible there, so the elision is invisible in virtual time (see
    DESIGN.md §Simulator for the invariant argument). The runnable set
    is kept in a binary min-heap, so each real scheduling decision is
    O(log n).

    Causality note: a processor observes a message in its input queue only
    at a scheduling point at-or-after the message's arrival timestamp, which
    models polling-based reception (messages are never handled between an
    inline state check and its corresponding load/store, the key invariant
    of the Shasta protocol). *)

type proc
(** Handle to the currently executing simulated processor. *)

exception Cycle_limit of int
(** Raised (carrying the processor id) when a processor exceeds the run's
    cycle budget — the simulator's deadlock/livelock backstop. *)

type outcome = {
  finish : int array;  (** each processor's finish time in cycles *)
  yields_performed : int;
      (** scheduling points of this run that performed the yield effect *)
  yields_elided : int;
      (** scheduling points elided by run-ahead (below the horizon) *)
}
(** A run's result. The yield counters are per-run state — [run] keeps
    no cross-run mutable globals, so independent runs may execute
    concurrently on separate domains (the multicore experiment runner
    relies on this; see DESIGN.md §3c). *)

val run :
  nprocs:int ->
  ?max_cycles:int ->
  ?run_ahead:bool ->
  ?arrival_hint:(int -> int) ->
  ?lookahead:int array ->
  ?events:(int * (kill:(int -> unit) -> now:int -> unit)) list ->
  (proc -> unit) ->
  outcome
(** [run ~nprocs body] spawns [nprocs] processors executing [body] and
    schedules them to completion; [outcome.finish] is each processor's
    finish time in cycles. [max_cycles] defaults to [2_000_000_000].

    [events] is a list of [(at, callback)] pairs, fired in ascending
    [at] order. An event due at virtual time [at] fires just before the
    scheduler resumes the first processor whose clock is at-or-past
    [at] — since the scheduler always resumes the minimum clock, no
    processor has executed at-or-past [at] when the callback runs. The
    callback receives [kill], which marks a processor terminated
    {e without} unwinding its stack (crash semantics: no finalizers
    run; the orphaned fiber is reclaimed by the GC), and [now], the
    clock of the about-to-run processor. [kill] raises
    [Invalid_argument] on an out-of-range pid and is a no-op on an
    already-finished one. With no events (the default) the run is
    bit-identical to previous behaviour.

    [run_ahead] (default [true]): when false, every scheduling point
    performs the yield effect and re-enters the scheduler, as the
    original yield-per-advance scheduler did. The simulation outcome is
    identical either way; the flag exists for benchmarking and for
    cross-checking determinism. The equivalence is stronger than final
    counters: anything a processor observes or emits is a pure function
    of its own virtual clock, so an event stream attributed to the
    {e executing} processor at its cycle (as the core [Observer.t]
    hooks are) is identical event-for-event under both schedulers — the
    trace-golden test uses this as its oracle.

    [arrival_hint pid] may return the earliest arrival timestamp of an
    in-flight message destined to [pid], or [max_int] when none (the
    default). It is consulted once per resume and only ever {e tightens}
    the horizon, so a conservative hint is always safe.

    [lookahead] is a flat [nprocs * nprocs] matrix; entry
    [p * nprocs + q] is a lower bound on the virtual-time delay before
    any action of [q] can become visible to [p] — 0 when the pair
    shares mutable state directly, the minimum message transfer time
    when the network is the only path between them. Each other runnable
    processor contributes [clock + lookahead] to the resumed
    processor's horizon, which is where run-ahead earns its keep. The
    default (and an empty array) is all zeros: the horizon degenerates
    to the exact second-lowest runnable clock. Under-estimating an
    entry is always safe; over-estimating one can reorder visible
    events. *)

val run_controlled :
  nprocs:int ->
  ?max_cycles:int ->
  ?events:(int * (kill:(int -> unit) -> now:int -> unit)) list ->
  choose:(int array -> int) ->
  (proc -> unit) ->
  outcome
(** [run ~run_ahead:false] under an external scheduler, for the litmus
    model checker. At every real scheduling decision the runnable
    processors are collected into an array sorted by (clock, pid) and
    passed to [choose], which must return one of them; that processor is
    resumed. [choose = fun cands -> cands.(0)] reproduces the default
    schedule exactly. Any other choice still models a valid execution —
    a timing in which the chosen processor's pending work simply
    completes earlier — because message FIFO order between each
    processor pair is independent of the schedule and the protocol makes
    no real-time assumptions. Raises [Invalid_argument] if [choose]
    returns a pid outside \[0, nprocs); a pid that finished (or was
    killed by an event) since the candidate array was built is skipped
    silently. [events] is as in {!run}, fired at the chosen processor's
    clock before it steps. *)

val pid : proc -> int
(** Identifier in \[0, nprocs). *)

val nprocs : proc -> int
(** Number of processors in this run. *)

val now : proc -> int
(** Current value of this processor's cycle clock. *)

val advance : proc -> int -> unit
(** [advance p c] charges [c] cycles; yields to the scheduler if the
    clock reached this run slice's horizon. *)

val advance_local : proc -> int -> unit
(** Charge cycles without a scheduling point — for short straight-line
    sequences where interleaving cannot matter. *)

val yield : proc -> unit
(** Scheduling point without a time charge (yields only at-or-past the
    horizon, where another processor may be due). *)

val idle_skip : proc -> quantum:int -> int
(** [idle_skip p ~quantum] is the number of cycles an idle spin loop —
    one that polls, re-checks state and advances [quantum] cycles per
    iteration — may add to its next advance so that it lands on the
    first lattice point at or past the visibility horizon (0 when that
    is the very next point anyway). Every skipped iteration is provably
    a no-op: strictly below the horizon the message probe is empty and
    no observable state can have changed, so the collapsed wait is
    bit-identical to stepping in virtual time. *)
