module Stats = Shasta_core.Stats
module Metrics = Shasta_trace.Metrics
module H = Shasta_util.Histogram
module Ycsb = Shasta_workload.Ycsb

type output = { text : string; ycsb : Ycsb.result list }

type t = {
  name : string;
  render : scale:float -> output;
  specs : scale:float -> Runner.spec list;
}

let text s = { text = s; ycsb = [] }

(* Table 3 doubles the problem scale relative to the harness-wide factor
   (the paper's "larger problem sizes"); keeping the factor here makes
   render and specs agree by construction. *)
let all =
  [
    {
      name = "table1";
      render = (fun ~scale -> text (Exp_checking_overhead.render ~scale ()));
      specs = (fun ~scale -> Exp_checking_overhead.specs ~scale ());
    };
    {
      name = "table2";
      render = (fun ~scale -> text (Exp_granularity.render ~scale ()));
      specs = (fun ~scale -> Exp_granularity.specs ~scale ());
    };
    {
      name = "table3";
      render =
        (fun ~scale -> text (Exp_large_problems.render ~scale:(2.0 *. scale) ()));
      specs = (fun ~scale -> Exp_large_problems.specs ~scale:(2.0 *. scale) ());
    };
    {
      name = "fig3";
      render = (fun ~scale -> text (Exp_speedup.render ~scale ()));
      specs = (fun ~scale -> Exp_speedup.specs ~scale ());
    };
    {
      name = "fig4";
      render = (fun ~scale -> text (Exp_breakdown.render ~vg:false ~scale ()));
      specs = (fun ~scale -> Exp_breakdown.specs ~vg:false ~scale ());
    };
    {
      name = "fig5";
      render = (fun ~scale -> text (Exp_breakdown.render ~vg:true ~scale ()));
      specs = (fun ~scale -> Exp_breakdown.specs ~vg:true ~scale ());
    };
    {
      name = "fig6";
      render = (fun ~scale -> text (Exp_misses.render ~scale ()));
      specs = (fun ~scale -> Exp_misses.specs ~scale ());
    };
    {
      name = "fig7";
      render = (fun ~scale -> text (Exp_messages.render ~scale ()));
      specs = (fun ~scale -> Exp_messages.specs ~scale ());
    };
    {
      name = "fig8";
      render = (fun ~scale -> text (Exp_downgrade_dist.render ~scale ()));
      specs = (fun ~scale -> Exp_downgrade_dist.specs ~scale ());
    };
    {
      name = "micro";
      render = (fun ~scale:_ -> text (Exp_microbench.render ()));
      specs = (fun ~scale:_ -> Exp_microbench.specs ());
    };
    {
      name = "ycsb";
      render =
        (fun ~scale ->
          let text, ycsb = Exp_ycsb.render ~scale () in
          { text; ycsb });
      specs = (fun ~scale -> Exp_ycsb.specs ~scale ());
    };
    {
      name = "anl";
      render = (fun ~scale -> text (Exp_anl_compare.render ~scale ()));
      specs = (fun ~scale -> Exp_anl_compare.specs ~scale ());
    };
    {
      name = "ablation";
      render = (fun ~scale -> text (Exp_ablation.render ~scale ()));
      specs = (fun ~scale -> Exp_ablation.specs ~scale ());
    };
  ]

let names = List.map (fun t -> t.name) all
let find name = List.find_opt (fun t -> t.name = name) all

(* The target's own runs, one result per distinct spec: the fold every
   JSON field and stderr row is computed from. A cache read once the
   target's batch has run. *)
let results t ~scale =
  List.map Runner.run (List.sort_uniq compare (t.specs ~scale))

(* The merged metrics of the traced runs among [rs], with their count. *)
let metrics rs =
  match List.filter_map (fun r -> r.Runner.metrics) rs with
  | [] -> None
  | ms ->
    let agg = Metrics.create () in
    List.iter (Metrics.merge_into ~into:agg) ms;
    Some (List.length ms, agg)

let json t ~scale ~wall ~jobs out =
  let rs = results t ~scale in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  (* A target with no Runner runs has no simulated time, yields or
     fused-hit rate of its own: null, not 0. *)
  let if_ran f = if rs = [] then "null" else f () in
  let cycles = sum (fun r -> r.Runner.parallel_cycles) in
  let checks = sum (fun r -> r.Runner.stats.Stats.checks) in
  let fast_hits = sum (fun r -> r.Runner.stats.Stats.fast_hits) in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\n\
    \  \"target\": %S,\n\
    \  \"wall_seconds\": %.3f,\n\
    \  \"simulated_cycles\": %s,\n\
    \  \"simulated_seconds\": %s,\n\
    \  \"jobs\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"yields_performed\": %s,\n\
    \  \"yields_elided\": %s,\n\
    \  \"fastpath\": %b,\n\
    \  \"hit_fastpath_rate\": %s,\n\
    \  \"runs\": %d"
    t.name wall
    (if_ran (fun () -> string_of_int cycles))
    (if_ran (fun () -> Printf.sprintf "%.6f" (Runner.seconds cycles)))
    jobs
    (Domain.recommended_domain_count ())
    (if_ran (fun () -> string_of_int (sum (fun r -> fst r.Runner.yields))))
    (if_ran (fun () -> string_of_int (sum (fun r -> snd r.Runner.yields))))
    (Shasta_core.Config.env_fastpath ())
    (if_ran (fun () ->
         Printf.sprintf "%.6f"
           (if checks = 0 then 0.0
            else float_of_int fast_hits /. float_of_int checks)))
    (List.length rs);
  Option.iter
    (fun (n, mx) ->
      Printf.bprintf b ",\n  \"traced_runs\": %d,\n  \"metrics\": %s" n
        (Metrics.to_json mx))
    (metrics rs);
  Option.iter
    (Printf.bprintf b ",\n  \"ycsb\": %s")
    (Ycsb.totals_json out.ycsb);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let notes t ~scale out =
  let rs = results t ~scale in
  let b = Buffer.create 1024 in
  (match Runner.fastpath_by_app rs with
  | [] -> ()
  | rows ->
    Printf.bprintf b "[fastpath %s: per-app fused-hit rate / prog coverage]\n"
      (if Shasta_core.Config.env_fastpath () then "on" else "off");
    List.iter
      (fun (app, (checks, fast_hits, accesses, prog_accesses)) ->
        let rate den num =
          if den = 0 then 0.0 else float_of_int num /. float_of_int den
        in
        Printf.bprintf b "[  %-10s hit %.3f (%d/%d)  prog %.3f (%d/%d)]\n" app
          (rate checks fast_hits) fast_hits checks
          (rate accesses prog_accesses) prog_accesses accesses)
      rows);
  Option.iter
    (fun (n, mx) ->
      let line label h =
        Printf.bprintf b "[  %-14s n=%d p50=%d p99=%d p999=%d max=%d]\n" label
          (H.total h) (H.percentile h 0.5) (H.percentile h 0.99)
          (H.percentile h 0.999) (H.percentile h 1.0)
      in
      Printf.bprintf b "[metrics over %d traced run(s), cycles:]\n" n;
      line "miss_latency" (Metrics.miss_latency mx);
      line "downgrade_rtt" (Metrics.downgrade_rtt mx))
    (metrics rs);
  Option.iter
    (fun (runs, classes, unattributed) ->
      Printf.bprintf b "[ycsb aggregate over %d run(s), latency cycles:]\n" runs;
      List.iter
        (fun (cls, ops, lat, msgs) ->
          Printf.bprintf b
            "[  %-7s ops=%-8d p50=%-6d p99=%-6d p999=%-6d msgs/op=%.2f]\n"
            (Ycsb.class_name cls) ops (H.percentile lat 0.5)
            (H.percentile lat 0.99) (H.percentile lat 0.999)
            (float_of_int msgs /. float_of_int (max 1 ops)))
        classes;
      Printf.bprintf b "[  unattributed_msgs %d]\n" unattributed)
    (Ycsb.totals out.ycsb);
  Buffer.contents b
