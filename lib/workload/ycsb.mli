(** YCSB-style traffic generator over the DSM-backed KV store
    ({!Shasta_apps.Kv}).

    A {!spec} fully determines a run: the standard workload mixes A-F,
    a key-popularity distribution ({!Sampler}), record/op counts and a
    machine shape. Every processor draws its own deterministic op
    stream from seeded samplers, so a run is reproducible per seed and
    — like every simulation here — bit-identical in virtual time
    whatever the host scheduling.

    Measurement is per {e op class} (read / update / rmw / insert /
    scan): each op's latency (cycles between entering and leaving the
    op, timed with [Dsm.now]) lands in a per-processor histogram, and
    every protocol message is attributed via an [on_send] hook to the
    class its sending processor is currently executing — hooks charge
    no cycles, so measuring is free. Per-processor series are merged in
    pid order after the run.

    Correctness is checked like the registered apps: a host shadow copy
    is maintained inside the same bucket critical sections (per-key
    sequential consistency: every read must return the last value
    written in lock order, and the final table must equal the shadow),
    and [SHASTA_SANITIZE] attaches the sanitizer / race detector
    exactly as the experiment runner does. *)

module Histogram := Shasta_util.Histogram

type mix = A | B | C | D | E | F

val mix_of_string : string -> mix option
val mix_to_string : mix -> string

val mix_describe : mix -> string
(** E.g. ["50% read / 50% update"]. *)

type op_class = Read | Update | Rmw | Insert | Scan | Other

val class_name : op_class -> string

val class_order : op_class list
(** Fixed rendering/merge order. [Other] is not an op class: it holds
    the messages sent outside any op (before a processor's first op and
    during the post-run drain), reported as [unattributed_msgs]. *)

type spec = {
  mix : mix;
  records : int;  (** preloaded keys, >= 2 *)
  ops : int;  (** total ops, split round-robin over processors *)
  dist : Sampler.dist;
  theta : float;
  scan_max : int;  (** scan length is uniform in [1, scan_max] *)
  variant : Shasta_core.Config.variant;
  nprocs : int;
  clustering : int;
  seed : int;
  progs : bool;
      (** run get/put/rmw probes as {!Shasta_apps.Kv} kernels when the
          mix allows it (no inserts); cycle-identical to the primitive
          path *)
}

val spec :
  ?mix:mix ->
  ?records:int ->
  ?ops:int ->
  ?dist:Sampler.dist ->
  ?theta:float ->
  ?scan_max:int ->
  ?variant:Shasta_core.Config.variant ->
  ?nprocs:int ->
  ?clustering:int ->
  ?seed:int ->
  ?progs:bool ->
  ?shards:int ->
  unit ->
  spec
(** Defaults: workload A, 10_000 records, 40_000 ops, zipfian 0.99,
    scan_max 16, Smp 16 processors clustered 4, seed 42, progs on.

    [shards] is kept only so the benchmark under [perfbench/] compiles
    unchanged: it accepts [1] (every run executes on the calling domain)
    and raises [Invalid_argument] on any other value. The next change to
    the benchmark drops it. *)

type class_stats = {
  cls : op_class;
  count : int;  (** ops completed (scan = one op) *)
  latency : Histogram.t;  (** per-op cycles *)
  msgs : int;  (** protocol messages attributed to the class *)
}

type result = {
  spec : spec;
  nbuckets : int;
  bcap : int;
  compiled : bool;  (** the KV kernel path was used *)
  parallel_cycles : int;
  remote_msgs : int;
  local_msgs : int;  (** excluding downgrades *)
  downgrade_msgs : int;
  dropped_inserts : int;  (** full-bucket inserts (deterministic) *)
  yields : int * int;
      (** (performed, elided) scheduler yields of the run,
          {!Shasta_core.Dsm.sched_counts} *)
  classes : class_stats list;
      (** classes with activity, in order; an [Other] entry carries the
          unattributed messages (its [count] is 0) *)
  oracle_ok : bool;
  oracle : string;
}

val run : spec -> result
(** Execute the run. Raises [Failure] on a sanitizer violation or a
    detected race (like the experiment runner); an oracle failure is
    reported in [oracle_ok]/[oracle] instead so callers can render the
    result before failing. *)

val render : result -> string
(** The per-op-class table (count, p50/p99/p999 latency cycles,
    messages/op) plus totals, with [Other]'s messages as
    [unattributed_msgs] — virtual-time quantities only, so the output is
    bit-identical across host runs. *)

val totals :
  result list -> (int * (op_class * int * Histogram.t * int) list * int) option
(** [(runs, per-op-class (ops, merged latency, msgs), unattributed_msgs)]
    aggregated over [results]; [None] for [[]]. The class list leaves
    out [Other], whose messages are the third component. *)

val totals_json : result list -> string option
(** {!totals} as a JSON object (per op class: ops, p50/p99/p999,
    msgs_per_op; plus [unattributed_msgs] and [yields_performed], the
    runs' performed scheduler yields), the [ycsb] member of
    [shasta_cli report --json]. *)
