module Config = Shasta_core.Config
module Histogram = Shasta_util.Histogram
module Sampler = Shasta_workload.Sampler
module Ycsb = Shasta_workload.Ycsb

let scaled = Shasta_apps.App.scaled

(* The sweep: production-shaped mixes across machine shapes, then one
   dimension varied at a time around the (A, smp-16x4, zipfian 0.99)
   center — skew, distribution, record count, and the insert-bearing
   mixes D/E (which run the primitive path: inserts change the layout
   the KV kernels bake in). *)
let sweep ~scale =
  let records = scaled scale 12_000 in
  let ops = scaled scale 48_000 in
  let machines = [ (Config.Base, 8, 1); (Config.Smp, 16, 4) ] in
  let mk ?(mix = Ycsb.A) ?(records = records) ?(ops = ops)
      ?(dist = Sampler.Zipfian) ?(theta = 0.99) (variant, nprocs, clustering)
      =
    Ycsb.spec ~mix ~records ~ops ~dist ~theta ~variant ~nprocs ~clustering ()
  in
  let smp = (Config.Smp, 16, 4) in
  List.concat
    [
      List.concat_map
        (fun mix -> List.map (fun m -> mk ~mix m) machines)
        [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.F ];
      List.map (fun theta -> mk ~theta smp) [ 0.5; 0.9 ];
      List.map (fun dist -> mk ~dist smp) [ Sampler.Uniform; Sampler.Scrambled ];
      List.map (fun records -> mk ~mix:Ycsb.B ~records smp)
        [ scaled scale 6_000; scaled scale 24_000 ];
      List.map (fun mix -> mk ~mix smp) [ Ycsb.D; Ycsb.E ];
    ]

let machine_name (spec : Ycsb.spec) =
  match spec.Ycsb.variant with
  | Config.Base -> Printf.sprintf "base-%d" spec.Ycsb.nprocs
  | Config.Smp ->
    Printf.sprintf "smp-%dx%d" spec.Ycsb.nprocs spec.Ycsb.clustering

let dist_name (spec : Ycsb.spec) =
  match spec.Ycsb.dist with
  | Sampler.Uniform -> "uniform"
  | Sampler.Zipfian -> Printf.sprintf "zipf %.2f" spec.Ycsb.theta
  | Sampler.Scrambled -> Printf.sprintf "scram %.2f" spec.Ycsb.theta

let render ~scale () =
  let results = List.map Ycsb.run (sweep ~scale) in
  let rows =
    List.concat_map
      (fun (r : Ycsb.result) ->
        let spec = r.Ycsb.spec in
        List.filter_map
          (fun (c : Ycsb.class_stats) ->
            if c.Ycsb.count = 0 then None
            else
              Some
                [
                  Ycsb.mix_to_string spec.Ycsb.mix;
                  machine_name spec;
                  dist_name spec;
                  string_of_int spec.Ycsb.records;
                  string_of_int spec.Ycsb.ops;
                  Ycsb.class_name c.Ycsb.cls;
                  string_of_int c.Ycsb.count;
                  string_of_int (Histogram.percentile c.Ycsb.latency 0.5);
                  string_of_int (Histogram.percentile c.Ycsb.latency 0.99);
                  string_of_int (Histogram.percentile c.Ycsb.latency 0.999);
                  Printf.sprintf "%.2f"
                    (float_of_int c.Ycsb.msgs
                    /. float_of_int (max 1 c.Ycsb.count));
                ])
          r.Ycsb.classes)
      results
  in
  let table =
    Shasta_util.Text_table.render
      ~header:
        [
          "mix"; "machine"; "keys"; "records"; "ops"; "class"; "count";
          "p50"; "p99"; "p999"; "msgs/op";
        ]
      rows
  in
  let oracle =
    let bad =
      List.filter (fun (r : Ycsb.result) -> not r.Ycsb.oracle_ok) results
    in
    let dropped =
      List.fold_left
        (fun a (r : Ycsb.result) -> a + r.Ycsb.dropped_inserts)
        0 results
    in
    Printf.sprintf
      "%d runs, oracle %s; %d dropped inserts; latencies in cycles (300 MHz)"
      (List.length results)
      (if bad = [] then "ok on all"
       else Printf.sprintf "FAILED on %d" (List.length bad))
      dropped
  in
  ( Report.section
      "YCSB: per-op-class tail latency on the DSM-backed KV store"
      (table ^ "\n" ^ oracle ^ "\n"),
    results )

(* The YCSB harness builds bespoke machines inline (its runs are not
   Registry apps), so there is nothing to prefetch. *)
let specs ~scale:_ () : Runner.spec list = []
