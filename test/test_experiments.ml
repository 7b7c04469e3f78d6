(* Smoke tests of the experiment harness at reduced scale: each renderer
   must produce a non-empty table containing its expected structure, and
   the run cache must be shared across experiments. *)

module E = Shasta_experiments

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let check_contains out parts =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "output mentions %S" p) true
        (contains out p))
    parts

let scale = 0.4

let test_table1 () =
  let out = E.Exp_checking_overhead.render ~scale () in
  check_contains out [ "Table 1"; "lu"; "raytrace"; "average overhead" ]

let test_micro () =
  let out = E.Exp_microbench.render () in
  check_contains out [ "2-hop"; "downgrade"; "us" ]

let test_fig8 () =
  let out = E.Exp_downgrade_dist.render ~procs:[ 8 ] ~scale () in
  check_contains out [ "Figure 8"; "0 msgs"; "3 msgs"; "water-nsq" ]

let test_speedup_consistency () =
  (* The cached sequential run must make speedups consistent across
     calls: same spec, same result. *)
  let s1 = E.Runner.speedup (E.Runner.base ~scale "ocean" 4) in
  let s2 = E.Runner.speedup (E.Runner.base ~scale "ocean" 4) in
  Alcotest.(check (float 0.0)) "deterministic cached speedup" s1 s2;
  Alcotest.(check bool) "cache populated" true (E.Runner.cache_size () > 0)

let test_run_verifies () =
  let r = E.Runner.run (E.Runner.smp ~scale "water-sp" 8 ~clustering:4) in
  Alcotest.(check bool) "verdict ok" true r.E.Runner.verdict.Shasta_apps.App.ok;
  Alcotest.(check bool) "produced misses" true
    (Shasta_core.Stats.total_misses r.E.Runner.stats > 0)

let test_run_batch_once_semantics () =
  let s1 = E.Runner.base ~scale "lu" 2 in
  let s2 = E.Runner.smp ~scale "lu" 2 ~clustering:2 in
  let s3 = E.Runner.base ~scale "volrend" 2 in
  (* Warm one spec in place first: the batch must dedup against the
     cache, not just within itself. *)
  let pre = E.Runner.run s1 in
  Alcotest.(check int) "fresh specs executed once each" 2
    (E.Runner.run_batch ~jobs:2 [ s1; s2; s3; s2; s1 ]);
  Alcotest.(check int) "re-batch executes nothing" 0
    (E.Runner.run_batch ~jobs:2 [ s1; s2; s3 ]);
  Alcotest.(check bool) "pre-batch cache entry untouched" true
    (E.Runner.run s1 == pre)

let test_batch_matches_inplace () =
  (* A spec executed on a worker domain must land in the cache with the
     same observable result as in-place execution of its twin spec
     (determinism across domains; the CI diff of --jobs 1 vs default
     pins the same property end-to-end on whole tables). *)
  let spec = E.Runner.smp ~scale "fmm" 4 ~clustering:2 in
  ignore (E.Runner.run_batch ~jobs:2 [ spec ]);
  let batched = E.Runner.run spec in
  let inplace = E.Runner.run { spec with E.Runner.checks = false } in
  (* Different checks flag => different spec => fresh in-place run; the
     batched run must agree on everything checks cannot change. *)
  Alcotest.(check bool) "batched run verified" true
    batched.E.Runner.verdict.Shasta_apps.App.ok;
  Alcotest.(check bool) "in-place run verified" true
    inplace.E.Runner.verdict.Shasta_apps.App.ok;
  Alcotest.(check string) "same workload" inplace.E.Runner.workload
    batched.E.Runner.workload

let test_messages_split () =
  let r = E.Runner.run (E.Runner.smp ~scale "ocean" 8 ~clustering:4) in
  Alcotest.(check bool) "remote messages" true (r.E.Runner.remote_msgs > 0);
  Alcotest.(check bool) "downgrades counted separately" true
    (r.E.Runner.downgrade_msgs >= 0 && r.E.Runner.local_msgs >= 0)

(* The top-level field names of a JSON record, in order: the keys of
   its two-space-indented lines. *)
let json_fields j =
  String.split_on_char '\n' j
  |> List.filter_map (fun line ->
         if String.length line > 3 && String.sub line 0 3 = "  \"" then
           Some (List.nth (String.split_on_char '"' line) 1)
         else None)

let run_fields =
  [
    "target"; "wall_seconds"; "simulated_cycles"; "simulated_seconds"; "jobs";
    "host_cores"; "yields_performed"; "yields_elided"; "fastpath";
    "hit_fastpath_rate"; "runs";
  ]

let record (t : E.Targets.t) ~scale =
  ignore (E.Runner.run_batch ~jobs:2 (t.specs ~scale));
  E.Targets.json t ~scale ~wall:0.0 ~jobs:2 (t.render ~scale)

let test_json_no_runs () =
  let micro = Option.get (E.Targets.find "micro") in
  let j = record micro ~scale in
  Alcotest.(check (list string)) "field names" run_fields (json_fields j);
  check_contains j
    ("\"runs\": 0\n"
    :: List.map
         (Printf.sprintf "\"%s\": null,")
         [
           "simulated_cycles"; "simulated_seconds"; "yields_performed";
           "yields_elided"; "hit_fastpath_rate";
         ])

(* A target's record folds over its own distinct specs, so it cannot
   depend on which targets ran before it: running an overlapping target
   in between changes nothing, and the simulated cycles are the sum over
   the target's distinct specs even when another target executed them. *)
let test_json_per_target () =
  let scale = 0.2 in
  let fig3 =
    {
      E.Targets.name = "fig3";
      specs = (fun ~scale -> E.Exp_speedup.specs ~procs:[ 1; 2 ] ~scale ());
      render =
        (fun ~scale ->
          E.Targets.text (E.Exp_speedup.render ~procs:[ 1; 2 ] ~scale ()));
    }
  in
  let table1 = Option.get (E.Targets.find "table1") in
  let cycles (t : E.Targets.t) =
    List.sort_uniq compare (t.specs ~scale)
    |> List.fold_left (fun a s -> a + (E.Runner.run s).E.Runner.parallel_cycles) 0
  in
  let before = record fig3 ~scale in
  Alcotest.(check (list string)) "field names" run_fields (json_fields before);
  let t1 = record table1 ~scale in
  Alcotest.(check string) "fig3 record unchanged" before (record fig3 ~scale);
  check_contains before
    [ Printf.sprintf "\"simulated_cycles\": %d," (cycles fig3); "\"runs\": 45\n" ];
  check_contains t1
    [ Printf.sprintf "\"simulated_cycles\": %d," (cycles table1); "\"runs\": 27\n" ]

let () =
  Alcotest.run "experiments"
    [
      ( "renderers",
        [
          Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "microbench" `Quick test_micro;
          Alcotest.test_case "figure 8" `Quick test_fig8;
        ] );
      ( "runner",
        [
          Alcotest.test_case "cached speedups" `Quick test_speedup_consistency;
          Alcotest.test_case "runs verify" `Quick test_run_verifies;
          Alcotest.test_case "message split" `Quick test_messages_split;
          Alcotest.test_case "run_batch once-semantics" `Quick
            test_run_batch_once_semantics;
          Alcotest.test_case "run_batch matches in-place" `Quick
            test_batch_matches_inplace;
        ] );
      ( "json",
        [
          Alcotest.test_case "target with no runs" `Quick test_json_no_runs;
          Alcotest.test_case "per-target fold" `Quick test_json_per_target;
        ] );
    ]
