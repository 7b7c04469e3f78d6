(** Public API of the simulated Shasta distributed shared memory.

    Usage is in two phases. In the {e setup phase}, create a machine from
    a {!Config.t} and allocate shared data, locks and barriers. In the
    {e parallel phase}, {!run} executes one body per simulated processor;
    the body accesses shared memory through the checked [load]/[store]
    operations (each of which performs the inline access-control check of
    the real system, charging its cycle cost, and drops into the
    coherence protocol on a miss), synchronizes with locks and barriers,
    and models local computation with {!compute}.

    All values live in the simulated shared heap as 8-byte cells (floats
    or 63-bit integers); addresses are byte offsets and must be 8-byte
    aligned. *)

type handle
(** A configured machine (setup phase + post-run inspection). *)

val create : Config.t -> handle
val config : handle -> Config.t
val machine : handle -> Machine.t

(** {1 Setup phase} *)

val alloc : handle -> ?block_size:int -> ?home:int -> int -> int
(** Allocate bytes of shared memory; see {!Machine.alloc}. *)

val alloc_floats : handle -> ?block_size:int -> ?home:int -> int -> int
(** Allocate an array of [n] 8-byte cells; element [i] lives at
    [base + 8*i]. *)

val place : handle -> addr:int -> len:int -> proc:int -> unit
(** Home-placement optimization; see {!Machine.place}. *)

val alloc_lock : handle -> int
val alloc_barrier : handle -> int

val add_observer : handle -> Observer.t -> unit
(** Install analysis hooks ({!Machine.add_observer}) before {!run}. *)

val poke_float : handle -> int -> float -> unit
(** Setup phase: write an initial value directly into the home node's
    copy (data is born initialized at its home, so the parallel phase
    starts with the cold-miss behaviour of the real system). *)

val poke_int : handle -> int -> int -> unit

(** {1 Parallel phase} *)

type ctx

val run :
  ?run_ahead:bool ->
  ?events:(int * (kill:(int -> unit) -> now:int -> unit)) list ->
  handle ->
  (ctx -> unit) ->
  unit
(** Execute the body on every simulated processor and drain the
    protocol. May be called once per handle. [run_ahead] (default
    [true]) enables the slack-based run-ahead scheduler; disabling it
    forces a full scheduler round-trip at every charged scheduling
    point, which must produce the identical simulation. Every body runs
    on the calling domain.

    [events] schedules virtual-time callbacks — the crash-injection
    surface, see {!Shasta_sim.Engine.run} and {!Shasta_recover.Crash}.
    Each [(at, f)] fires once, at a scheduler decision point, before
    any processor executes at or past cycle [at]; [f] may kill
    processors and mutate machine state atomically. Passing [[]]
    (the default) is bit-identical to the previous behaviour. *)

val run_controlled :
  ?events:(int * (kill:(int -> unit) -> now:int -> unit)) list ->
  choose:(int array -> int) ->
  handle ->
  (ctx -> unit) ->
  unit
(** {!run} under an external scheduler, for the litmus model checker:
    run-ahead is disabled, every scheduling point performs, and at each
    one [choose] picks the next processor from the runnable set (sorted
    by virtual time, ties by pid — index 0 reproduces the default
    schedule). [events] as in {!run} — lets the litmus DFS place
    crashes at explored decision points. See
    {!Shasta_sim.Engine.run_controlled}. *)

val pid : ctx -> int
val nprocs : ctx -> int
val prng : ctx -> Shasta_util.Prng.t
(** Per-processor deterministic random stream. *)

val now : ctx -> int
(** This processor's current virtual cycle clock. *)

val compute : ctx -> int -> unit
(** Model [n] cycles of local computation (includes a loop-backedge poll
    at the configured interval). *)

val load_float : ctx -> int -> float
val store_float : ctx -> int -> float -> unit

val load_int : ctx -> int -> int
val store_int : ctx -> int -> int -> unit

(** {1 Batched access (§3.4.4)}

    [batch ctx ranges f] performs one combined check for all the (addr,
    len, access) ranges, then runs [f], inside which the [Batch] raw
    operations may touch exactly those ranges without further checks.
    When [Config.sanitize > 0], the reference path checks every raw
    access against the declaration: it must be 8-byte aligned, all
    8 bytes must lie in one declared range, and a store must lie in a
    range declared [W]. A failed check raises {!Inspect.Violation}
    with subject [Proc pid]. The fused path does not check. *)

type access = R | W

val batch : ctx -> (int * int * access) list -> (unit -> 'a) -> 'a

module Batch : sig
  val load_float : ctx -> int -> float
  val store_float : ctx -> int -> float -> unit
  val load_int : ctx -> int -> int
  val store_int : ctx -> int -> int -> unit
end

(** {1 Kernels}

    An app's innermost loop body as one closure (§3.4.1): raw kernels
    run inside a {!batch} whose ranges cover every address they touch,
    checked kernels run outside any batch. A kernel issues exactly the
    accesses and charges of the loop it replaces, so virtual time does
    not depend on whether a loop runs as a kernel. *)
module Prog : sig
  type t =
    ctx -> s:float -> aux:float array -> base0:int -> base1:int -> base2:int ->
    unit
  (** A kernel over a scalar [s], host-side scratch [aux] and three
      base addresses (unused ones may be [0]). *)

  val no_aux : float array
  (** Empty scratch array for kernels that use none. *)

  val fms_row : len:int -> cost:int -> t
  (** The raw daxpy row kernel [dst.(c) <- dst.(c) -. s *. src.(c)] for
      [c] in [0, len), charging [cost] cycles of compute per element.
      [base0] = dst row, [base1] = src row. Per element: src load, dst
      load, dst store, charge. *)

  val run :
    ctx -> t -> s:float -> aux:float array -> base0:int -> base1:int ->
    base2:int -> unit
  (** Apply a kernel and add the accesses it issued to
      [Stats.prog_accesses]. *)
end

(** {1 Synchronization} *)

val lock : ctx -> int -> unit
val unlock : ctx -> int -> unit
val barrier : ctx -> int -> unit

(** {1 Post-run results} *)

val parallel_cycles : handle -> int
(** Wall-clock of the parallel phase: max over processors of the cycle
    count when the body returned. *)

val proc_stats : handle -> Stats.t array
val aggregate_stats : handle -> Stats.t

val peek_float : handle -> int -> float
(** Post-run: read a value from a currently valid copy (owner-preferred)
    without going through any protocol — for result verification. *)

val peek_int : handle -> int -> int

val messages_local : handle -> int
(** Intra-node protocol messages sent, including downgrades. *)

val messages_remote : handle -> int
val downgrade_messages : handle -> int

val sched_counts : handle -> int * int
(** (performed, elided) yield-effect counts of this handle's {!run} —
    the per-run scheduler observability of {!Shasta_sim.Engine.outcome}.
    [(0, 0)] before [run]. *)

val sched_sites : handle -> Shasta_sim.Engine.sites
(** The performed yields of this handle's {!run} by site
    ({!Shasta_sim.Engine.sites}); all zero before [run]. *)
