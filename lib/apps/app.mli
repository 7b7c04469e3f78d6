(** Common shape of the SPLASH-2 workloads.

    An {!instance} is a fully-sized workload: [setup] allocates and
    initializes its shared data on a machine handle and returns the
    per-processor body plus a result verifier. The verifier compares the
    parallel run's output (read with [Dsm.peek_*]) against an internally
    computed sequential reference.

    [vg] selects the paper's variable-granularity allocation hints for
    the application's key data structures (Table 2); without it all
    large objects use the default 64-byte blocks. [scale] multiplies the
    problem size linearly (1.0 = the scaled-down default documented in
    EXPERIMENTS.md; 2.0 = the "larger problem" configuration of
    Table 3). *)

type verdict = { ok : bool; detail : string }

type instance = {
  name : string;
  workload : string;  (** human description of the sized problem *)
  heap_bytes : int;  (** shared-heap requirement *)
  setup :
    Shasta_core.Dsm.handle ->
    (Shasta_core.Dsm.ctx -> unit) * (Shasta_core.Dsm.handle -> verdict);
}

type maker = ?vg:bool -> ?scale:float -> unit -> instance
(** Every application module provides [instance : maker]. *)

val heap : instance -> int
(** The shared heap to configure a machine with for [inst]: its
    [heap_bytes], at least 4 MiB, rounded up to a 4 KiB page. *)

val scaled : float -> int -> int
(** [scaled s n] is [n] scaled by [s], at least 1. *)

val pass : detail:string -> verdict
val fail : detail:string -> verdict

val close : ?tol:float -> float -> float -> bool
(** Relative comparison with default tolerance 1e-6 (parallel floating
    point sums reassociate). *)
