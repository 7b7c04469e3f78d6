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
          ] );
      ]
