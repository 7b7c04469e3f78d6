(** YCSB sweep: per-op-class tail latency of the DSM-backed KV store
    under production-shaped load.

    Sweeps the workload mix (A, B, C, F as KV kernels; D and E on
    the primitive path), machine shape (Base vs. SMP
    clustering), key skew (zipfian theta, uniform, scrambled) and
    record count, reporting p50/p99/p999 op latency and messages/op per
    operation class. Every run is oracle-checked (per-key sequential
    consistency against a lock-order shadow). All rendered quantities
    are virtual-time, so the table is bit-identical across job counts
    and host runs. *)

val render : scale:float -> unit -> string * Shasta_workload.Ycsb.result list
(** The rendered sweep, and the results it rendered from (for
    {!Shasta_workload.Ycsb.totals}). *)

val specs : scale:float -> unit -> Runner.spec list
(** Always [[]]: the harness builds bespoke machines inline and has no
    {!Runner.spec} representation. *)
