(** Shared machinery for the paper-reproduction experiments.

    A {!spec} fully determines a simulated run; results are memoized for
    the lifetime of the process because the experiments reuse each
    other's configurations heavily (e.g. the Figure-4 breakdown uses the
    same runs as the Figure-3 speedups). *)

type spec = {
  app : string;
  vg : bool;
  scale : float;
  variant : Shasta_core.Config.variant;
  nprocs : int;
  clustering : int;
  checks : bool;
  smp_sync : bool;  (** hierarchical-barrier extension (5) *)
  share_directory : bool;  (** shared-directory extension (5) *)
}

val base : ?vg:bool -> ?scale:float -> string -> int -> spec
(** Base-Shasta run at the given processor count. *)

val smp : ?vg:bool -> ?scale:float -> string -> int -> clustering:int -> spec
(** SMP-Shasta run. *)

val sequential : ?scale:float -> string -> spec
(** One processor, inline checks disabled — the "original sequential
    code" baseline. *)

type result = {
  spec : spec;
  workload : string;
  parallel_cycles : int;
  stats : Shasta_core.Stats.t;  (** aggregated over processors *)
  per_proc : Shasta_core.Stats.t array;
  local_msgs : int;  (** intra-node messages, excluding downgrades *)
  remote_msgs : int;
  downgrade_msgs : int;
  verdict : Shasta_apps.App.verdict;
  yields : int * int;
      (** (performed, elided) scheduler yields, {!Shasta_core.Dsm.sched_counts} *)
  metrics : Shasta_trace.Metrics.t option;
      (** the run's metrics observer, when [SHASTA_TRACE] was set *)
}

val run : spec -> result
(** Execute (or fetch from the cache). Raises [Failure] if the
    application's result verification fails — every experiment run is
    also a correctness check. Two environment variables attach
    cycle-neutral observers: [SHASTA_TRACE] (anything but empty or
    ["0"]) the metrics observer, kept in [metrics]; [SHASTA_CKPT=N]
    ([N >= 1] cycles) the checkpointer. A malformed [SHASTA_CKPT]
    raises [Invalid_argument]. *)

val run_batch : ?jobs:int -> spec list -> int
(** Warm the cache for a list of specs: dedupe the list against itself
    and against the cache, execute the misses concurrently on a
    {!Shasta_util.Pool} of [jobs] domains ([Pool.default_jobs ()] when
    omitted — the [SHASTA_JOBS] environment variable or the machine's
    core count), publish the results, and return how many specs were
    executed. [jobs = 1] executes in place, with no domains spawned.
    Every individual simulation is deterministic and self-contained, so
    subsequent {!run} calls — and tables rendered from them — are
    byte-identical whatever [jobs] was.
    A failed run re-raises after the whole batch has finished; completed
    results of the batch are still cached. Must be called from the
    coordinating (main) domain, never from inside another batch. *)

val seconds : int -> float
(** Simulated seconds from a cycle count (300 MHz clock). *)

val speedup : spec -> float
(** [parallel_cycles (sequential app)] / [parallel_cycles spec], the
    paper's definition (relative to the original sequential code). *)

val cache_size : unit -> int

val fastpath_by_app : result list -> (string * (int * int * int * int)) list
(** [(app, (checks, fast_hits, accesses, prog_accesses))] summed over
    [results] per application, sorted by name — the per-app fused-hit
    rate and access-program coverage the CLI's [report] prints to
    stderr. *)
