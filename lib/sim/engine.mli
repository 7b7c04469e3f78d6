(** Deterministic cooperative multiprocessor.

    Each simulated processor runs as an effect-handler coroutine with its
    own virtual cycle clock. The scheduler always resumes the runnable
    processor with the smallest clock (ties broken by processor id) —
    counting a waiter that only a message can release as standing at
    that message's arrival (see {!idle_skip}) — so a run is a
    deterministic function of the program and its seeds. A run
    executes entirely on the calling domain: its processors interleave,
    never overlap.

    Run-ahead: when resuming a processor the scheduler hands it a
    {e horizon} — the earliest virtual time at which any other processor
    could affect it: the minimum over its in-flight message arrivals
    ([arrivals]) and, for every other live processor, that processor's
    term — its clock, or for a parked self-woken waiter its next possible
    wake-up (see {!idle_skip}) — plus the pair's [lookahead] slack (0 when
    the two share mutable state and may interact at any instant; the
    minimum message transfer time when the network is the only path
    between them). Scheduling points strictly below the horizon elide the
    yield effect entirely: nothing another processor does could have
    become visible there, so the elision is invisible in virtual time
    (see DESIGN.md §3b for the invariant argument). Each processor's
    terms are kept in flat int arrays, so computing a horizon is one pass
    over ints, and the runnable set is a binary min-heap of pids keyed by
    clock (by next possible wake-up for a parked self-woken waiter), so
    each real scheduling decision is O(n) reads plus O(log n) stores.

    Causality note: a processor observes a message in its input queue only
    at a scheduling point at-or-after the message's arrival timestamp, which
    models polling-based reception (messages are never handled between an
    inline state check and its corresponding load/store, the key invariant
    of the Shasta protocol). *)

type proc
(** Handle to the currently executing simulated processor. *)

exception Cycle_limit of int
(** Raised (carrying the processor id) when a processor exceeds the run's
    cycle budget — the simulator's deadlock/livelock backstop — or, under
    run-ahead, as soon as every live processor sleeps (see
    {!idle_skip}), since each of them could only spin into it. *)

type sites = {
  poll : int;
      (** every other performed yield: a poll probe's scheduling point,
          an operation's flush or poll charge *)
  group : int;  (** ends of {!Group} wait iterations *)
  self : int;  (** ends of {!Self} wait iterations *)
  global : int;  (** ends of {!Global} wait iterations *)
}
(** Performed yields by site. A wait iteration ends at the advance after
    its {!idle_skip}; the scheduler classifies a yield when it suspends
    the processor, so an elided yield costs nothing extra. The four
    fields sum to [yields_performed]. Under [run ~run_ahead:false] and
    {!run_controlled} no wait is skipped, so every yield counts as
    [poll]. *)

type outcome = {
  finish : int array;  (** each processor's finish time in cycles *)
  yields_performed : int;
      (** scheduling points of this run that performed the yield effect *)
  yields_elided : int;
      (** scheduling points elided by run-ahead (below the horizon) *)
  yields_by_site : sites;
}
(** A run's result. The yield counters are per-run state — [run] keeps
    no cross-run mutable globals, so independent runs may execute
    concurrently on separate domains (the multicore experiment runner
    relies on this; see DESIGN.md §3c). *)

val run :
  nprocs:int ->
  ?max_cycles:int ->
  ?run_ahead:bool ->
  ?arrivals:int array ->
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
    already-finished one. A run with events is always-yield, whatever
    [run_ahead] says: run-ahead would let processors execute past [at]
    before the event fires. With no events (the default) the run is
    bit-identical to previous behaviour.

    [run_ahead] (default [true]): when false, every scheduling point
    performs the yield effect and re-enters the scheduler, as the
    original yield-per-advance scheduler did. The flag exists for
    benchmarking and for cross-checking determinism. Outside {!Global}
    waits, anything a processor observes or emits is a pure function of
    its own virtual clock, so an event stream attributed to the
    {e executing} processor at its cycle (as the core [Event.t]s
    are) is identical event-for-event under both schedulers — the
    trace-golden test uses this as its oracle. In the [outcome], the
    yield counters differ by design, and [finish] is the same under both
    schedulers except for a processor that ends in a {!Global} wait (the
    post-run drain): that predicate reads other processors' state, which
    a processor running ahead has already changed at a later clock, so
    the waiter may leave, and finish, earlier under run-ahead.

    [arrivals] (default: nothing is ever queued) has one entry per
    processor: a lower bound on the arrival timestamp of the earliest
    in-flight message destined to it, [max_int] when none. The engine
    reads it, never writes it; the caller keeps it current as messages
    are queued and handled (a [Network.arrivals] array is exact). An
    entry may be earlier than the true earliest arrival, never later.
    When the running processor queues a message for another, it must
    call {!sent} after updating the entry (a crash event's callback
    need not: a run with [events] is always-yield).

    [lookahead] is a flat [nprocs * nprocs] matrix; entry
    [p * nprocs + q] is a lower bound on the virtual-time delay before
    any action of [q] can become visible to [p] — 0 when the pair
    shares mutable state directly, the minimum message transfer time
    when the network is the only path between them. Each other runnable
    processor contributes [clock + lookahead] to the resumed
    processor's horizon, which is where run-ahead earns its keep. The
    default (and an empty array) is all zeros: the horizon degenerates
    to the exact second-lowest runnable clock. The run closes the matrix
    under the triangle inequality (the cheapest path through any chain
    of processors), so under-estimating an entry is always safe;
    over-estimating one can reorder visible events. Its zero-lookahead
    classes — processors joined by a zero entry either way — are the
    {e groups} of {!idle_skip} and {!touch}. *)

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
    schedule exactly. The array is a buffer the engine refills at the
    next decision: [choose] may read it but must not keep it. Any other
    choice still models a valid execution —
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

type scope =
  | Group
      (** The wait predicate reads state its group shares: it may change
          whenever a processor of the group runs or handles a message. *)
  | Self
      (** Message-woken: the predicate reads only state the waiter's own
          message handlers write, so only a message to it can end the
          wait (a lock grant, a flat barrier release, the reply to a
          miss this processor requested). *)
  | Global
      (** The predicate reads state any processor may change, so no
          message marks the wait's end, but leaving the wait changes
          nothing another processor reads (the post-run drain). *)
(** What an idle wait's predicate reads (see {!idle_skip}). In both
    [Self] and [Global] waits, the waiter's only action another
    processor can observe is handling a message. *)

val idle_skip : ?scope:scope -> proc -> quantum:int -> int
(** [idle_skip p ~quantum] is the number of cycles an idle spin loop —
    one that polls, re-checks state and advances [quantum] cycles per
    iteration — may add to its next advance, [advance p (quantum + skip)],
    so that it lands on the first lattice point at or past [p]'s
    visibility bound (0 when that is the very next point anyway). Every
    skipped iteration is provably a no-op: strictly below the bound the
    message probe is empty and no observable state can have changed, so
    the collapsed wait is bit-identical to stepping in virtual time. It
    is always 0 under [run ~run_ahead:false] and {!run_controlled}.

    The bound is the earliest time another processor's action can become
    visible to [p]: [p]'s own earliest queued arrival, and for each other
    live processor [q] its clock plus the pair's lookahead — except for a
    {e frozen} [q], which contributes [max (clock q) (arrivals.(q))]
    plus the lookahead ([max_int], i.e. nothing, when it has no queued
    message). A processor {e parks} when the advance that follows its
    [idle_skip] performs the yield. It is frozen while it stays parked
    and nothing can have changed what its predicate reads; its only
    possible next action is then handling a message. [scope] (default
    {!Group}) says what that predicate reads:

    - a {!Group} waiter is frozen until a {!touch} hits its group;
    - a {!Self} or {!Global} waiter is frozen until it is resumed, and
      its frozen term also replaces its clock in every other processor's
      horizon: a processor running beside it is no longer bounded by its
      clock. A message queued for it mid-slice must be reported with
      {!sent}, which lowers the sender's horizon to the waiter's new
      term;
    - a {!Self} waiter is queued by its frozen term, not its clock, so
      it is not resumed each time the other clocks pass its bound: the
      first resume lands it on the first lattice point at or past its
      earliest arrival — the point the skipped resumes would have
      reached, each of them an empty probe of an unchanged predicate —
      and it handles the message there, in the same slice or the next.
      With nothing queued it has no such term and {e sleeps}: it leaves
      the run queue, and only {!sent} puts it back. If the run queue empties while processors
      sleep, each waits for a message nobody can send: the run raises
      {!Cycle_limit} for the sleeper with the least (clock, pid), the
      one that would have spun into the limit first had it stayed
      queued at its clock;
    - a {!Global} waiter never sleeps, since no message ends its wait:
      it wakes each time the other clocks pass its bound.

    So a node whose processors all wait advances in message-arrival or
    remote-lookahead steps rather than one [quantum] per scheduler
    switch, a lock, barrier or miss-requester waiter stops leapfrogging
    its running siblings, and a self-woken waiter costs at most two
    resumes per message it handles.
    Parking is off in every always-yield run: [run ~run_ahead:false],
    {!run_controlled} and any run with [events]. *)

val touch : proc -> unit
(** [touch p] records that [p] may have changed state its group reads,
    so no {!Group} waiter of [p]'s group counts as frozen (see
    {!idle_skip}) until it parks again. A waiting loop built on
    {!idle_skip} must call it when it handles a message and when it
    leaves the loop. A {!Group} waiter's predicate may read only state
    that processors of its own group change, a {!Self} waiter's only
    state its own message handlers change (anything else must reach it
    as a message); the scheduler touches on behalf of a processor
    resumed while not parked. Touching more often than needed only
    costs skipped cycles. *)

val sent : proc -> dst:int -> unit
(** [sent p ~dst] reports that [p], running, has just queued a message
    for [dst] and updated [arrivals.(dst)]: a frozen [dst]'s terms are
    recomputed, and if [dst] is a {!Self} or {!Global} waiter, [p]'s
    horizon drops to [dst]'s new term plus the pair's lookahead. A
    {!Self} waiter's run-queue key is that term: a sleeping [dst] goes
    back on the run queue at it, and a queued one moves up when the new
    message arrives before its earlier one. So under run-ahead,
    reporting every send is needed for liveness and for exactness, not
    only for the horizon: a sleeper whose message goes unreported is
    never resumed to handle it, and the run ends in {!Cycle_limit}; a
    queued waiter whose earlier message goes unreported resumes after
    it should have handled it. Reporting a send that changed nothing
    only costs a few reads. *)
