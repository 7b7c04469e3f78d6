(* The KV store + YCSB harness: oracle-verified runs on both access
   paths, compiled/closure invariance, per-seed
   determinism, a two-node single-bucket litmus, and a 64-seed fuzz of
   the bucket critical section with the sanitizer and race detector
   attached. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Inspect = Shasta_core.Inspect
module Kv = Shasta_apps.Kv
module Sampler = Shasta_workload.Sampler
module Ycsb = Shasta_workload.Ycsb
module Sanitizer = Shasta_check.Sanitizer
module Races = Shasta_check.Races
module Histogram = Shasta_util.Histogram
module Prng = Shasta_util.Prng

let small ?(mix = Ycsb.A) ?(progs = true) ?(seed = 42) () =
  Ycsb.spec ~mix ~records:1_000 ~ops:4_000 ~theta:0.9 ~variant:Config.Smp
    ~nprocs:8 ~clustering:2 ~progs ~seed ()

(* Everything virtual-time about a result, for cross-run comparison:
   clock, message counts, and per-class (count, msgs, latency histogram
   as key/count pairs). *)
let digest (r : Ycsb.result) =
  ( r.Ycsb.parallel_cycles,
    (r.Ycsb.remote_msgs, r.Ycsb.local_msgs, r.Ycsb.downgrade_msgs),
    r.Ycsb.dropped_inserts,
    List.map
      (fun (c : Ycsb.class_stats) ->
        ( Ycsb.class_name c.Ycsb.cls,
          c.Ycsb.count,
          c.Ycsb.msgs,
          List.map
            (fun k -> (k, Histogram.count c.Ycsb.latency k))
            (Histogram.keys c.Ycsb.latency) ))
      r.Ycsb.classes )

let check_oracle name (r : Ycsb.result) =
  Alcotest.(check bool) (name ^ ": " ^ r.Ycsb.oracle) true r.Ycsb.oracle_ok

(* A basic run passes its oracle and accounts for every op. *)
let test_ycsb_oracle () =
  List.iter
    (fun mix ->
      let r = Ycsb.run (small ~mix ()) in
      check_oracle ("mix " ^ Ycsb.mix_to_string mix) r;
      let ops =
        List.fold_left
          (fun a (c : Ycsb.class_stats) ->
            if c.Ycsb.cls = Ycsb.Other then a else a + c.Ycsb.count)
          0 r.Ycsb.classes
      in
      Alcotest.(check int)
        (Ycsb.mix_to_string mix ^ ": every op measured")
        4_000 ops)
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.F ]

(* The KV kernels must be cycle-identical to the primitive path: same
   clock, same messages, same per-class latency histograms. *)
let test_progs_closure_parity () =
  let fast = Ycsb.run (small ~progs:true ()) in
  let slow = Ycsb.run (small ~progs:false ()) in
  Alcotest.(check bool) "fast path compiled" true fast.Ycsb.compiled;
  Alcotest.(check bool) "slow path interpreted" false slow.Ycsb.compiled;
  check_oracle "progs" fast;
  check_oracle "closures" slow;
  Alcotest.(check bool) "identical virtual-time digests" true
    (digest fast = digest slow)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Messages sent outside any op are not an op class: the [Other] entry
   renders as [unattributed_msgs N], never as an "other" row whose
   per-op rate divides by zero ops. *)
let test_unattributed_msgs () =
  let r = Ycsb.run (small ()) in
  let other =
    List.fold_left
      (fun a (c : Ycsb.class_stats) ->
        if c.Ycsb.cls = Ycsb.Other then a + c.Ycsb.msgs else a)
      0 r.Ycsb.classes
  in
  Alcotest.(check bool) "some messages fall outside any op" true (other > 0);
  let out = Ycsb.render r in
  Alcotest.(check bool) "rendered as unattributed_msgs" true
    (contains out (Printf.sprintf "unattributed_msgs %d " other));
  Alcotest.(check bool) "no other row" false (contains out "| other");
  match Ycsb.totals_json [ r ] with
  | None -> Alcotest.fail "no totals for a run"
  | Some j ->
    Alcotest.(check bool) "json carries unattributed_msgs" true
      (contains j "\"unattributed_msgs\"");
    Alcotest.(check bool) "json has no other class" false
      (contains j "\"other\"")

(* Same seed: same run. Different seed: a different schedule (the
   clock is free to collide, the full digest is not). *)
let test_seed_determinism () =
  let a = Ycsb.run (small ~seed:7 ()) in
  let b = Ycsb.run (small ~seed:7 ()) in
  let c = Ycsb.run (small ~seed:8 ()) in
  Alcotest.(check bool) "seed 7 replays identically" true
    (digest a = digest b);
  Alcotest.(check bool) "seed 8 diverges from seed 7" false
    (digest a = digest c)

(* Insert-bearing mixes run the closure path and keep the oracle:
   dropped inserts (full buckets) are allowed but must be counted
   deterministically. *)
let test_insert_mixes () =
  List.iter
    (fun mix ->
      let r1 = Ycsb.run (small ~mix ()) in
      let r2 = Ycsb.run (small ~mix ()) in
      check_oracle ("mix " ^ Ycsb.mix_to_string mix) r1;
      Alcotest.(check bool)
        (Ycsb.mix_to_string mix ^ ": inserts ran the closure path")
        false r1.Ycsb.compiled;
      Alcotest.(check int)
        (Ycsb.mix_to_string mix ^ ": dropped inserts deterministic")
        r1.Ycsb.dropped_inserts r2.Ycsb.dropped_inserts)
    [ Ycsb.D; Ycsb.E ]

(* Two-node single-bucket litmus: four processors on two SMP nodes all
   hammer one bucket — every rmw goes through the same lock and the
   same cache line, so lost updates or stale reads surface here first.
   Final value must be the exact increment count; bystander keys must
   be untouched. *)
let litmus_records = 8

let run_litmus ?choose ~rounds ~sanitize () =
  let plan = Kv.plan ~nbuckets:1 ~records:litmus_records () in
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:4 ~clustering:2 ~sanitize
      ~heap_bytes:(max (1 lsl 22) (plan.Kv.bytes + 65536))
      ()
  in
  let h = Dsm.create cfg in
  let san = Sanitizer.attach (Dsm.machine h) in
  let rd = Races.attach (Dsm.machine h) in
  let t =
    Kv.create h ~nbuckets:1 ~records:litmus_records ~extra_keys:0
      ~value0:(fun k -> float_of_int (100 + k))
      ()
  in
  let nprocs = 4 in
  let body ctx =
    let p = Dsm.pid ctx in
    for i = 1 to rounds do
      (* rmw key 0 *)
      Kv.charge_hash t ctx;
      Kv.lock t ctx 0;
      (match Kv.probe_in t ctx 0 with
      | `Found s ->
        let v = Kv.read_slot t ctx ~bucket:0 ~slot:s in
        Kv.write_slot t ctx ~bucket:0 ~slot:s (v +. 1.0)
      | `Absent _ -> failwith "litmus: key 0 missing");
      Kv.unlock t ctx 0;
      (* read a bystander key under the same lock *)
      let k = 1 + ((p + i) mod (litmus_records - 1)) in
      Kv.charge_hash t ctx;
      Kv.lock t ctx 0;
      (match Kv.probe_in t ctx k with
      | `Found s ->
        let v = Kv.read_slot t ctx ~bucket:0 ~slot:s in
        if v <> float_of_int (100 + k) then
          failwith (Printf.sprintf "litmus: key %d read %g" k v)
      | `Absent _ -> failwith "litmus: bystander missing");
      Kv.unlock t ctx 0
    done
  in
  (match choose with
  | None -> Dsm.run h body
  | Some choose -> Dsm.run_controlled ~choose h body);
  Inspect.assert_invariants (Dsm.machine h);
  Alcotest.(check int) "sanitizer clean" 0 (Sanitizer.violation_count san);
  Alcotest.(check int) "race detector clean" 0 (Races.race_count rd);
  Alcotest.(check (float 0.0))
    "key 0 counted every rmw"
    (float_of_int (100 + (nprocs * rounds)))
    (Kv.peek_value t h 0);
  for k = 1 to litmus_records - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "key %d untouched" k)
      (float_of_int (100 + k))
      (Kv.peek_value t h k)
  done;
  Alcotest.(check (float 0.0))
    "bucket count cell intact"
    (float_of_int litmus_records)
    (Kv.peek_count t h 0)

let test_litmus () = run_litmus ~rounds:20 ~sanitize:2 ()

(* The same litmus under 64 fuzzed schedules (uniformly random runnable
   processor at every decision point), sanitizer and race detector
   attached throughout. *)
let random_choose seed =
  let prng = Prng.create (0x5eed + (seed * 2654435761)) in
  fun (cands : int array) -> cands.(Prng.int prng (Array.length cands))

let test_litmus_fuzzed () =
  for seed = 0 to 63 do
    try run_litmus ~choose:(random_choose seed) ~rounds:6 ~sanitize:2 ()
    with e ->
      Alcotest.failf "kv litmus, fuzz seed %d: %s" seed (Printexc.to_string e)
  done

let () =
  Alcotest.run "workload"
    [
      ( "ycsb",
        [
          Alcotest.test_case "oracle holds on mixes A/B/C/F" `Slow
            test_ycsb_oracle;
          Alcotest.test_case "compiled = closure in virtual time" `Slow
            test_progs_closure_parity;
          Alcotest.test_case "deterministic per seed" `Slow
            test_seed_determinism;
          Alcotest.test_case "other renders as unattributed_msgs" `Quick
            test_unattributed_msgs;
          Alcotest.test_case "insert mixes D/E" `Slow test_insert_mixes;
        ] );
      ( "kv-litmus",
        [
          Alcotest.test_case "two-node single-bucket contention" `Quick
            test_litmus;
          Alcotest.test_case "64 fuzzed schedules clean" `Slow
            test_litmus_fuzzed;
        ] );
    ]
