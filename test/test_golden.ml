(* Determinism golden test for the scheduler.

   Runs the Exp_speedup workload set at a reduced scale and summarizes,
   per app and configuration, the per-processor final cycle counts and
   the machine-wide message/miss counters. The summary is compared

   - against itself across two fresh runs (in-process determinism),
   - against a checked-in snapshot captured with the always-yield
     scheduler (`~run_ahead:false`), pinning virtual-time behavior
     across PRs, and
   - between the run-ahead scheduler and the always-yield scheduler,
     which must agree event-for-event.

   Any scheduler change that perturbs virtual time shows up as a diff in
   these lines. Regenerate the snapshot (only when a perturbation is
   intended and understood) with:

     SHASTA_GOLDEN_WRITE=$PWD/test/golden_speedup.expected \
       dune exec test/test_golden.exe *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module Machine = Shasta_core.Machine
module App = Shasta_apps.App
module Registry = Shasta_apps.Registry

let scale = 0.25
let snapshot_file = "golden_speedup.expected"

let configs = [ (Config.Base, 4, 1); (Config.Smp, 8, 4) ]

let variant_name = function Config.Base -> "base" | Config.Smp -> "smp"

let run_one ?run_ahead app ~variant ~nprocs ~clustering =
  let maker = Registry.find app in
  let inst = maker ~scale () in
  let cfg =
    Config.create ~variant ~nprocs ~clustering ~heap_bytes:(App.heap inst) ()
  in
  let h = Dsm.create cfg in
  let body, verify = inst.App.setup h in
  Dsm.run ?run_ahead h body;
  let v = verify h in
  if not v.App.ok then
    Alcotest.failf "%s failed verification: %s" app v.App.detail;
  let m = Dsm.machine h in
  let ints f =
    String.concat ","
      (Array.to_list (Array.map (fun p -> string_of_int (f p)) m.Machine.procs))
  in
  let agg = Dsm.aggregate_stats h in
  Printf.sprintf
    "%s %s %dp/%d finish=%s cycles=%s local=%d remote=%d misses=%d checks=%d"
    app (variant_name variant) nprocs clustering
    (ints (fun p -> p.Machine.app_finish_cycles))
    (ints (fun p -> Stats.total_cycles p.Machine.stats))
    (Dsm.messages_local h) (Dsm.messages_remote h) (Stats.total_misses agg)
    agg.Stats.checks

let summary ?run_ahead () =
  List.concat_map
    (fun app ->
      List.map
        (fun (variant, nprocs, clustering) ->
          run_one ?run_ahead app ~variant ~nprocs ~clustering)
        configs)
    Registry.names

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let check_lines msg expected actual =
  Alcotest.(check (list string)) msg expected actual

let test_repeat_identical () =
  check_lines "two fresh runs agree" (summary ()) (summary ())

let test_matches_snapshot () =
  if not (Sys.file_exists snapshot_file) then
    Alcotest.failf "missing snapshot %s" snapshot_file;
  check_lines "matches checked-in snapshot" (read_lines snapshot_file)
    (summary ())

let test_run_ahead_equivalent () =
  check_lines "run-ahead and always-yield schedulers agree"
    (summary ~run_ahead:false ())
    (summary ~run_ahead:true ())

(* One scheduler core: every processor body of a run executes on the
   domain that called [Dsm.run]. Run-level parallelism ([--jobs]) is the
   only kind; nothing inside a run may hop domains. The bodies record
   their domain and the check happens after the run, on the caller. *)
let test_single_domain () =
  let nprocs = 16 in
  let cfg = Config.create ~variant:Config.Smp ~nprocs ~clustering:4 () in
  let h = Dsm.create cfg in
  let cells = Dsm.alloc_floats h nprocs in
  let bar = Dsm.alloc_barrier h in
  let caller = (Domain.self () :> int) in
  let ran_on = Array.make nprocs (-1) in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      Dsm.store_float ctx (cells + (8 * p)) (float_of_int p);
      Dsm.barrier ctx bar;
      ignore (Dsm.load_float ctx (cells + (8 * ((p + 5) mod nprocs))));
      ran_on.(p) <- (Domain.self () :> int));
  Alcotest.(check (array int))
    "every body ran on the caller's domain"
    (Array.make nprocs caller) ran_on

(* Per processor, its finish cycle and stats: what a yield budget's run
   must reproduce from the always-yield run. *)
let per_proc h =
  Array.to_list
    (Array.map
       (fun p ->
         ( p.Machine.app_finish_cycles,
           Array.to_list p.Machine.stats.Stats.cycles,
           Array.to_list p.Machine.stats.Stats.misses ))
       (Dsm.machine h).Machine.procs)

(* Yield budget of the frozen-node idle skip: processors 0-3 (node 0)
   compute while the other twelve wait at a barrier, so nodes 1-3 are
   wholly waiting. Their processors must skip to their next possible
   wake-up rather than poll every stall gap — at the same virtual times
   as the always-yield scheduler. *)
let barrier_after_compute ~run_ahead =
  let cfg = Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4 () in
  let h = Dsm.create cfg in
  let bar = Dsm.alloc_barrier h in
  Dsm.run ~run_ahead h (fun ctx ->
      if Dsm.pid ctx < 4 then
        for _ = 1 to 1000 do
          Dsm.compute ctx 1000
        done;
      Dsm.barrier ctx bar);
  (per_proc h, fst (Dsm.sched_counts h))

let test_waiting_nodes_skip () =
  let ay, ay_yields = barrier_after_compute ~run_ahead:false in
  let ra, ra_yields = barrier_after_compute ~run_ahead:true in
  Alcotest.(check (list (triple int (list int) (list int))))
    "finish cycles and stats agree with always-yield" ay ra;
  (* 203,990 before waiting nodes skipped; 7,274 with the skip. *)
  Alcotest.(check bool)
    (Printf.sprintf "performed yields %d <= 20,399 (always-yield %d)" ra_yields
       ay_yields)
    true (ra_yields <= 20_399)

(* Yield budget of self-woken waits: processors 0-3 (one node) take
   one lock in turn, each around a critical section of 200 computes of
   1,000 cycles, then all sixteen meet at a barrier. A lock waiter
   reads only its own grant, so its clock must not bound the holder
   beside it: the holder runs its section in a few slices instead of
   leapfrogging the waiters one stall gap at a time — at the same
   virtual times as the always-yield scheduler. *)
let lock_convoy ~run_ahead =
  let cfg = Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4 () in
  let h = Dsm.create cfg in
  let lk = Dsm.alloc_lock h in
  let bar = Dsm.alloc_barrier h in
  Dsm.run ~run_ahead h (fun ctx ->
      if Dsm.pid ctx < 4 then begin
        Dsm.lock ctx lk;
        for _ = 1 to 200 do
          Dsm.compute ctx 1000
        done;
        Dsm.unlock ctx lk
      end;
      Dsm.barrier ctx bar);
  (per_proc h, fst (Dsm.sched_counts h))

let test_lock_convoy_skips () =
  let ay, ay_yields = lock_convoy ~run_ahead:false in
  let ra, ra_yields = lock_convoy ~run_ahead:true in
  Alcotest.(check (list (triple int (list int) (list int))))
    "finish cycles and stats agree with always-yield" ay ra;
  (* 4,078 while the waiters' clocks bounded the holder; 383 with
     self-woken waits. *)
  Alcotest.(check bool)
    (Printf.sprintf "performed yields %d <= 1,000 (always-yield %d)" ra_yields
       ay_yields)
    true (ra_yields <= 1_000)

(* Yield budget of sleeping waiters: processor 0 takes 200 2-hop read
   misses to blocks homed on the next coherence node while the other
   fifteen processors wait at a flat barrier. Only a message can release
   a flat-barrier waiter, so it sleeps until one comes instead of being
   resumed each time processor 0's clock passes its bound: switches per
   miss must not grow with the number of waiting processors — at the
   same virtual times as the always-yield scheduler. *)
let misses_beside_waiters ~smp ~run_ahead =
  let cfg =
    if smp then Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4 ()
    else Config.create ~variant:Config.Base ~nprocs:16 ~procs_per_node:1 ()
  in
  let h = Dsm.create cfg in
  let n = 200 in
  let blocks = Dsm.alloc h ~home:(if smp then 4 else 1) (64 * n) in
  let bar = Dsm.alloc_barrier h in
  Dsm.run ~run_ahead h (fun ctx ->
      if Dsm.pid ctx = 0 then
        for k = 0 to n - 1 do
          ignore (Dsm.load_float ctx (blocks + (64 * k)))
        done;
      Dsm.barrier ctx bar);
  ( per_proc h,
    fst (Dsm.sched_counts h),
    Stats.total_misses (Dsm.aggregate_stats h) )

(* Runs a 200-miss scenario at Base-16 and SMP 16x4 under both
   schedulers: finish cycles and stats must agree, and the run-ahead
   leg must stay within [budget] performed yields per miss. *)
let check_yields_per_miss scenario ~budget =
  List.iter
    (fun smp ->
      let what = if smp then "smp 16x4" else "base 16" in
      let ay, _, _ = scenario ~smp ~run_ahead:false in
      let ra, ra_yields, misses = scenario ~smp ~run_ahead:true in
      Alcotest.(check (list (triple int (list int) (list int))))
        (what ^ ": finish cycles and stats agree with always-yield")
        ay ra;
      Alcotest.(check int) (what ^ ": one miss per block") 200 misses;
      let per_miss = float_of_int ra_yields /. float_of_int misses in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f performed yields per miss <= %g" what
           per_miss budget)
        true (per_miss <= budget))
    [ false; true ]

(* 49.4 (base) and 67.4 (smp) switches per miss while each waiter was
   resumed at every bound crossing; 7.4 and 7.8 once they sleep. *)
let test_misses_beside_waiters () =
  check_yields_per_miss misses_beside_waiters ~budget:10.

(* Yield budget of requester miss waits: processor 0 takes 200 2-hop
   read misses to blocks homed on another coherence node (processor 2
   under Base, processor 4 under SMP) while processor 1 computes beside
   it, reaching a scheduling point every stall gap, and the other
   processors wait at a flat barrier. Only the miss's reply can end the
   requester's data wait, so processor 0 is resumed once its reply is
   due instead of leapfrogging processor 1 one stall gap per switch — at
   the same virtual times as the always-yield scheduler. *)
let misses_beside_runner ~smp ~run_ahead =
  let cfg =
    if smp then Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4 ()
    else Config.create ~variant:Config.Base ~nprocs:16 ()
  in
  let h = Dsm.create cfg in
  let n = 200 in
  let blocks = Dsm.alloc h ~home:(if smp then 4 else 2) (64 * n) in
  let bar = Dsm.alloc_barrier h in
  Dsm.run ~run_ahead h (fun ctx ->
      (match Dsm.pid ctx with
      | 0 ->
        for k = 0 to n - 1 do
          ignore (Dsm.load_float ctx (blocks + (64 * k)))
        done
      | 1 ->
        for _ = 1 to 60_000 do
          Dsm.compute ctx 15
        done
      | _ -> ());
      Dsm.barrier ctx bar);
  ( per_proc h,
    fst (Dsm.sched_counts h),
    Stats.total_misses (Dsm.aggregate_stats h) )

(* 17.7 (base) and 110.8 (smp) switches per miss while the requester's
   wait was node-scoped; 13.8 and 13.4 with it self-woken but queued by
   its clock; 10.5 and 10.7 queued by its frozen term. *)
let test_misses_beside_runner () =
  check_yields_per_miss misses_beside_runner ~budget:12.

let () =
  match Sys.getenv_opt "SHASTA_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out path in
    List.iter
      (fun l -> output_string oc (l ^ "\n"))
      (summary ~run_ahead:false ());
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None ->
    Alcotest.run "golden"
      [
        ( "determinism",
          [
            Alcotest.test_case "repeat identical" `Quick test_repeat_identical;
            Alcotest.test_case "snapshot" `Quick test_matches_snapshot;
            Alcotest.test_case "run-ahead equivalent" `Quick
              test_run_ahead_equivalent;
            Alcotest.test_case "single domain" `Quick test_single_domain;
            Alcotest.test_case "waiting nodes skip" `Quick
              test_waiting_nodes_skip;
            Alcotest.test_case "lock convoy skips" `Quick
              test_lock_convoy_skips;
            Alcotest.test_case "misses beside waiting processors" `Quick
              test_misses_beside_waiters;
            Alcotest.test_case "misses beside a running sibling" `Quick
              test_misses_beside_runner;
          ] );
      ]
