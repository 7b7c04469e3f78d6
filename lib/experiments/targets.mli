(** The paper's evaluation targets, one per table/figure, as data.

    Each target pairs its renderer with the enumeration of every
    {!Runner.spec} the renderer will consult (sequential speedup
    baselines included), so [shasta_cli report] can warm the memo cache
    through a domain pool with {!Runner.run_batch} and then render
    sequentially from cache — the rendered output is byte-identical to
    running everything in place, because each simulation is
    deterministic and self-contained.

    A target's JSON record and stderr rows are folds over its own runs:
    the cached results of its distinct specs, plus the YCSB results its
    render returns. They do not depend on which targets ran before it
    or on the job count. Host-level per-layer costs are measured by the
    benchmark's warm probes ([probe.*] in [perfbench/]), not here. *)

type output = {
  text : string;  (** the rendered table, for stdout *)
  ycsb : Shasta_workload.Ycsb.result list;  (** the target's YCSB runs *)
}

type t = {
  name : string;  (** e.g. ["fig3"] *)
  render : scale:float -> output;
  specs : scale:float -> Runner.spec list;
}

val text : string -> output
(** An output with no YCSB runs. *)

val all : t list
(** In the paper's presentation order: table1-3, fig3-8, micro, ycsb,
    anl, ablation. *)

val names : string list

val find : string -> t option

val json :
  t -> scale:float -> wall:float -> jobs:int -> output -> string
(** The target's [BENCH_<name>.json] record (README "Benchmark JSON
    schema"), given the host seconds its batch and render took, the job
    count, and its rendered [output]. The run fields ([simulated_*],
    [yields_*], [hit_fastpath_rate]) sum over the target's distinct
    specs and are [null] when it has none; [runs] counts them. Call
    after the target's batch, so its results are cached. *)

val notes : t -> scale:float -> output -> string
(** The stderr rows of [shasta_cli report] for the target: per-app
    fused-hit rate and kernel coverage, traced-run latency
    percentiles ([SHASTA_TRACE]), and the YCSB per-op-class aggregate —
    each present only when the target has such runs. *)
