(* Command-line driver: run any SPLASH-2 workload on a configured
   simulated cluster and report the paper's statistics, or regenerate
   the paper's tables/figures with the multicore experiment runner.

     dune exec bin/shasta_cli.exe -- run ocean -p 16 --protocol smp -c 4
     dune exec bin/shasta_cli.exe -- report fig3 --quick --jobs 4
     dune exec bin/shasta_cli.exe -- list *)

open Cmdliner

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module App = Shasta_apps.App
module Registry = Shasta_apps.Registry

let run_app app_name nprocs variant clustering vg scale seed smp_sync share_dir verbose =
  match Registry.find app_name with
  | exception Not_found ->
    Printf.eprintf "unknown application %S; try: %s\n" app_name
      (String.concat " " Registry.names);
    1
  | maker ->
    let clustering = if variant = Config.Base then 1 else clustering in
    let inst = maker ~vg ~scale () in
    let cfg =
      Config.create ~variant ~nprocs ~clustering ~heap_bytes:(App.heap inst)
        ~seed ~smp_sync ~share_directory:share_dir ()
    in
    let h = Dsm.create cfg in
    let body, verify = inst.App.setup h in
    Printf.printf "%s: %s\n" inst.App.name inst.App.workload;
    Printf.printf "%s, %d processors, clustering %d%s\n%!"
      (match variant with Config.Base -> "Base-Shasta" | Config.Smp -> "SMP-Shasta")
      nprocs clustering
      (if vg then ", variable granularity" else "");
    let t0 = Unix.gettimeofday () in
    Dsm.run h body;
    let host = Unix.gettimeofday () -. t0 in
    let verdict = verify h in
    let stats = Dsm.aggregate_stats h in
    Printf.printf "\nresult: %s (%s)\n"
      (if verdict.App.ok then "VERIFIED" else "FAILED")
      verdict.App.detail;
    Printf.printf "parallel time: %.1f simulated ms (%.1fs host)\n"
      (1000.0 *. float_of_int (Dsm.parallel_cycles h) /. 3.0e8)
      host;
    Printf.printf "misses: %d  (mean read latency %.1f us)\n"
      (Stats.total_misses stats)
      (Stats.mean_read_latency_us stats);
    Printf.printf "messages: %d remote, %d local, %d downgrade\n"
      (Dsm.messages_remote h) (Dsm.messages_local h) (Dsm.downgrade_messages h);
    if verbose then begin
      Printf.printf "\ntime breakdown (aggregate cycles):\n";
      List.iter
        (fun c ->
          Printf.printf "  %-8s %12d\n" (Stats.category_name c) (Stats.cycles stats c))
        Stats.categories;
      Printf.printf "private upgrades: %d, false misses: %d, checks: %d\n"
        stats.Stats.private_upgrades stats.Stats.false_misses stats.Stats.checks
    end;
    if verdict.App.ok then 0 else 1

(* Regenerate paper tables/figures one target at a time: warm its specs
   through the domain pool, render it from the warm cache, time both.
   Stdout carries only the rendered tables, byte-identical for any job
   count; progress, timing and the target's fold rows go to stderr. *)
let report_targets target_names quick jobs json =
  let module Targets = Shasta_experiments.Targets in
  let scale = if quick then 0.5 else 1.0 in
  let jobs =
    match jobs with 0 -> Shasta_util.Pool.default_jobs () | j -> j
  in
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be a positive integer\n";
    exit 2
  end;
  let names = if target_names = [] then Targets.names else target_names in
  match
    List.partition_map
      (fun n ->
        match Targets.find n with
        | Some t -> Either.Left t
        | None -> Either.Right n)
      names
  with
  | _, (_ :: _ as unknown) ->
    Printf.eprintf "unknown target(s) %s; known: %s\n"
      (String.concat ", " unknown)
      (String.concat " " Targets.names);
    1
  | selected, [] ->
    Printf.eprintf "[report: %d jobs, %d host cores]\n%!" jobs
      (Domain.recommended_domain_count ());
    List.iter
      (fun (t : Targets.t) ->
        let t0 = Unix.gettimeofday () in
        let executed =
          Shasta_experiments.Runner.run_batch ~jobs (t.specs ~scale)
        in
        let out = t.render ~scale in
        let wall = Unix.gettimeofday () -. t0 in
        print_string out.Targets.text;
        flush stdout;
        Printf.eprintf "[%s completed in %.1fs host time; %d runs executed]\n%s%!"
          t.name wall executed
          (Targets.notes t ~scale out);
        if json then begin
          let file = Printf.sprintf "BENCH_%s.json" t.name in
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Targets.json t ~scale ~wall ~jobs out));
          Printf.eprintf "[wrote %s]\n%!" file
        end)
      selected;
    0

(* YCSB traffic generator: stream a keyed op mix (read/update/rmw/
   insert/scan) through the DSM-backed KV store and report per-op-class
   p50/p99/p999 latency and messages/op. Stdout carries only
   virtual-time quantities, so it is bit-identical across host runs;
   host wall time goes to stderr. *)
let run_ycsb workload records ops dist theta scan_max nprocs variant
    clustering seed no_progs =
  let module Sampler = Shasta_workload.Sampler in
  let module Ycsb = Shasta_workload.Ycsb in
  match Ycsb.mix_of_string workload with
  | None ->
    Printf.eprintf "unknown workload %S (a|b|c|d|e|f)\n" workload;
    2
  | Some mix -> (
    let clustering = if variant = Config.Base then 1 else clustering in
    match Sampler.dist_of_string dist with
    | None ->
      Printf.eprintf "unknown distribution %S (zipfian|scrambled|uniform)\n"
        dist;
      2
    | Some dist ->
      let spec =
        Ycsb.spec ~mix ~records ~ops ~dist ~theta ~scan_max ~variant ~nprocs
          ~clustering ~seed ~progs:(not no_progs) ()
      in
      let t0 = Unix.gettimeofday () in
      let r = Ycsb.run spec in
      let host = Unix.gettimeofday () -. t0 in
      print_string (Ycsb.render r);
      Printf.eprintf "[%d ops in %.1fs host, %s path]\n%!" ops host
        (if r.Ycsb.compiled then "access-program" else "closure");
      if r.Ycsb.oracle_ok then 0 else 1)

(* Protocol analyses (lib/check): the litmus model checker over the
   built-in downgrade-race scenarios, and/or a workload run under the
   online invariant sanitizer and the happens-before race detector. *)
let run_check litmus sanitize races budget max_runs fault app_name nprocs
    variant clustering scale seed =
  let module Sanitizer = Shasta_check.Sanitizer in
  let module Races = Shasta_check.Races in
  let module Litmus = Shasta_check.Litmus in
  let module Inspect = Shasta_core.Inspect in
  let rc = ref 0 in
  let do_litmus =
    litmus || (app_name = None && (not sanitize) && not races)
  in
  if do_litmus then begin
    let reports = Litmus.check_all ?fault ~budget ~max_runs () in
    List.iter (fun r -> Format.printf "%a@." Litmus.pp_report r) reports;
    if List.exists (fun r -> r.Litmus.failures <> []) reports then rc := 1
  end;
  (match app_name with
  | None ->
    if sanitize || races then begin
      Printf.eprintf "--sanitize/--races need a workload argument\n";
      rc := 2
    end
  | Some name -> (
    match Registry.find name with
    | exception Not_found ->
      Printf.eprintf "unknown application %S; try: %s\n" name
        (String.concat " " Registry.names);
      rc := 2
    | maker ->
      let clustering = if variant = Config.Base then 1 else clustering in
      let inst = maker ~vg:false ~scale () in
      let cfg =
        Config.create ~variant ~nprocs ~clustering ~heap_bytes:(App.heap inst)
          ~seed ~sanitize:(if races then 2 else 1) ?fault ()
      in
      let h = Dsm.create cfg in
      let m = Dsm.machine h in
      let san = Sanitizer.attach m in
      let rd = if races then Some (Races.attach m) else None in
      let body, verify = inst.App.setup h in
      Printf.printf "checking %s: %s\n%!" inst.App.name inst.App.workload;
      (try
         Dsm.run h body;
         let verdict = verify h in
         if not verdict.App.ok then begin
           Printf.printf "result FAILED: %s\n" verdict.App.detail;
           rc := 1
         end;
         match Inspect.report m with
         | [] -> ()
         | vs ->
           List.iter
             (fun v -> Printf.printf "post-run: %s\n" (Inspect.describe v))
             vs;
           rc := 1
       with
      | Inspect.Violation vs ->
        List.iter
          (fun v -> Printf.printf "barrier sweep: %s\n" (Inspect.describe v))
          vs;
        rc := 1
      | Shasta_core.Protocol.Protocol_violation _ as e ->
        Printf.printf "%s\n" (Printexc.to_string e);
        rc := 1);
      Printf.printf "sanitizer: %d transitions checked, %d violation(s)\n"
        (Sanitizer.events san)
        (Sanitizer.violation_count san);
      List.iter
        (fun v -> Printf.printf "  %s\n" (Inspect.describe v))
        (Sanitizer.violations san);
      if Sanitizer.violation_count san > 0 then rc := 1;
      (match rd with
      | None -> ()
      | Some rd ->
        Printf.printf "races: %d unsynchronized conflicting pair(s)\n"
          (Races.race_count rd);
        List.iter
          (fun r -> Printf.printf "  %s\n" (Races.describe r))
          (Races.races rd);
        if Races.race_count rd > 0 then rc := 1)));
  !rc

(* Structured event tracing: run a workload with the flight recorder
   and metrics observers attached, then dump the (filtered) event
   stream, export a Chrome trace_event JSON, and summarize the metric
   distributions. Subsumes the old SHASTA_TRACE_BLOCK printf path
   (--block gives the same per-block view, structured) and the
   debug_hang driver (a cycle-limit hang dumps machine state plus the
   freshest events). *)
let run_trace app_name nprocs variant clustering vg scale seed procs blocks
    kinds from_ upto limit capacity chrome_file stats no_dump =
  let module Recorder = Shasta_trace.Recorder in
  let module Event = Shasta_core.Event in
  let module Metrics = Shasta_trace.Metrics in
  let module Inspect = Shasta_core.Inspect in
  match Registry.find app_name with
  | exception Not_found ->
    Printf.eprintf "unknown application %S; try: %s\n" app_name
      (String.concat " " Registry.names);
    1
  | maker ->
    let clustering = if variant = Config.Base then 1 else clustering in
    let blocks =
      List.map
        (fun s ->
          match int_of_string_opt s with
          | Some b -> b
          | None ->
            Printf.eprintf "--block: expected an address (decimal or 0x hex), got %S\n" s;
            exit 2)
        blocks
    in
    let inst = maker ~vg ~scale () in
    let cfg =
      Config.create ~variant ~nprocs ~clustering ~heap_bytes:(App.heap inst)
        ~seed ()
    in
    let h = Dsm.create cfg in
    let m = Dsm.machine h in
    let rec_ = Recorder.attach ?capacity m in
    let mx = Metrics.attach m in
    let body, verify = inst.App.setup h in
    Printf.eprintf "tracing %s: %s\n%!" inst.App.name inst.App.workload;
    let rc = ref 0 in
    (try
       Dsm.run h body;
       let verdict = verify h in
       if not verdict.App.ok then begin
         Printf.eprintf "result FAILED: %s\n" verdict.App.detail;
         rc := 1
       end
     with Shasta_sim.Engine.Cycle_limit p ->
       Printf.printf "CYCLE LIMIT hit on proc %d - machine state:\n%!" p;
       Inspect.dump Format.std_formatter m;
       Format.pp_print_flush Format.std_formatter ();
       rc := 1);
    let filter =
      { Event.procs; blocks; kinds; from_; upto }
    in
    let events = List.filter (Event.matches filter) (Recorder.events rec_) in
    let shown =
      match limit with
      | Some n when n >= 0 && List.length events > n ->
        (* Flight-recorder semantics: keep the newest [n]. *)
        let drop = List.length events - n in
        List.filteri (fun i _ -> i >= drop) events
      | _ -> events
    in
    (match chrome_file with
    | Some path ->
      Shasta_trace.Chrome.write_file path
        ~node_of:(Shasta_core.Machine.node_of m)
        events;
      Printf.eprintf "[wrote %s: %d events]\n%!" path (List.length events)
    | None -> ());
    if not no_dump then
      List.iter (fun ev -> print_endline (Event.to_string ev)) shown;
    Printf.eprintf
      "[%d events recorded, %d dropped (ring capacity %d/proc), %d matched filter]\n%!"
      (Recorder.recorded rec_) (Recorder.dropped rec_)
      (Recorder.capacity rec_) (List.length events);
    if stats then Format.printf "%a@?" Metrics.pp mx;
    !rc

let list_apps () =
  List.iter
    (fun (name, (maker : App.maker)) ->
      let inst = maker () in
      Printf.printf "%-10s %s\n" name inst.App.workload)
    Registry.all;
  0

(* --- command line --- *)

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Workload name (see $(b,list)).")

let nprocs_arg =
  Arg.(value & opt int 16 & info [ "p"; "procs" ] ~docv:"N" ~doc:"Number of simulated processors.")

let protocol_arg =
  Arg.(
    value
    & opt (enum [ ("base", Config.Base); ("smp", Config.Smp) ]) Config.Smp
    & info [ "protocol" ] ~docv:"P" ~doc:"Protocol: base or smp.")

let clustering_arg =
  Arg.(value & opt int 4 & info [ "c"; "clustering" ] ~docv:"K" ~doc:"Processors per coherence node (smp only).")

let vg_arg =
  Arg.(value & flag & info [ "vg" ] ~doc:"Enable the variable-granularity allocation hints (Table 2).")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Problem-size scale factor.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let smp_sync_arg =
  Arg.(value & flag & info [ "smp-sync" ] ~doc:"Hierarchical SMP barriers (the paper's section-5 extension).")

let share_dir_arg =
  Arg.(value & flag & info [ "share-directory" ] ~doc:"Directory-state sharing within a node (section-5 extension).")
let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full time breakdown.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a SPLASH-2 workload on the simulated cluster")
    Term.(
      const run_app $ app_arg $ nprocs_arg $ protocol_arg $ clustering_arg
      $ vg_arg $ scale_arg $ seed_arg $ smp_sync_arg $ share_dir_arg
      $ verbose_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available workloads") Term.(const list_apps $ const ())

let targets_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"TARGET"
        ~doc:
          ("Tables/figures to regenerate (default: all): "
          ^ String.concat " " Shasta_experiments.Targets.names
          ^ "."))

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced problem scale (0.5).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Also write each target's record to $(b,BENCH_)$(i,TARGET)$(b,.json) \
           in the current directory.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of OCaml domains executing simulations concurrently; 0 (the \
           default) means $(b,SHASTA_JOBS) or the machine's core count. The \
           rendered tables are identical for any value.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate the paper's tables/figures, executing the independent \
          simulations concurrently on a domain pool")
    Term.(const report_targets $ targets_arg $ quick_arg $ jobs_arg $ json_arg)

let ycsb_workload_arg =
  Arg.(
    value & pos 0 string "a"
    & info [] ~docv:"WORKLOAD"
        ~doc:"YCSB core workload: a, b, c, d, e or f.")

let ycsb_records_arg =
  Arg.(
    value & opt int 100_000
    & info [ "records" ] ~docv:"N" ~doc:"Preloaded keys in the table.")

let ycsb_ops_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "ops" ] ~docv:"N"
        ~doc:"Total operations, split round-robin over the processors.")

let ycsb_dist_arg =
  Arg.(
    value & opt string "zipfian"
    & info [ "dist" ] ~docv:"D"
        ~doc:"Key distribution: zipfian, scrambled or uniform.")

let ycsb_theta_arg =
  Arg.(
    value & opt float 0.99
    & info [ "theta" ] ~docv:"T" ~doc:"Zipfian skew, in (0, 1).")

let ycsb_scan_max_arg =
  Arg.(
    value & opt int 16
    & info [ "scan-max" ] ~docv:"N"
        ~doc:"Scan length is uniform in [1, $(docv)] (workload e).")

let ycsb_no_progs_arg =
  Arg.(
    value & flag
    & info [ "no-progs" ]
        ~doc:
          "Use the per-access primitive path instead of the KV kernels \
           (cycle-identical; for diffing).")

let ycsb_cmd =
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "Stream a YCSB-style keyed op mix through the DSM-backed KV store \
          and report per-op-class p50/p99/p999 latency and messages/op")
    Term.(
      const run_ycsb $ ycsb_workload_arg $ ycsb_records_arg $ ycsb_ops_arg
      $ ycsb_dist_arg $ ycsb_theta_arg $ ycsb_scan_max_arg $ nprocs_arg
      $ protocol_arg $ clustering_arg $ seed_arg $ ycsb_no_progs_arg)

let litmus_arg =
  Arg.(
    value & flag
    & info [ "litmus" ]
        ~doc:
          "Exhaustively explore the built-in downgrade-race litmus scenarios \
           (the default when no workload is given).")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run the workload with the online invariant sanitizer attached (the \
           default when a workload is given).")

let races_arg =
  Arg.(
    value & flag
    & info [ "races" ]
        ~doc:
          "Additionally run the happens-before race detector over the \
           workload's loads and stores.")

let budget_arg =
  Arg.(
    value & opt int 2
    & info [ "budget" ] ~docv:"B"
        ~doc:"Litmus: schedule deviations allowed per run.")

let max_runs_arg =
  Arg.(
    value & opt int 20_000
    & info [ "max-runs" ] ~docv:"N" ~doc:"Litmus: replay cap per scenario.")

let fault_conv =
  Arg.enum
    [
      ("skip-private-downgrade", Config.Skip_private_downgrade);
      ("skip-flag-stamp", Config.Skip_flag_stamp);
    ]

let fault_arg =
  Arg.(
    value & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"F"
        ~doc:
          "Inject a protocol fault (skip-private-downgrade|skip-flag-stamp) — \
           for exercising the checkers; every mode must then FAIL.")

let check_app_arg =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Workload to check (see $(b,list)).")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Protocol analyses: litmus model checking of downgrade-race \
          scenarios, online invariant sanitizing, and happens-before race \
          detection")
    Term.(
      const run_check $ litmus_arg $ sanitize_arg $ races_arg $ budget_arg
      $ max_runs_arg $ fault_arg $ check_app_arg $ nprocs_arg $ protocol_arg
      $ clustering_arg $ scale_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* crash: the crash-placement litmus sweep over both recovery modes. *)

let run_crash budget max_runs ckpt_interval pull_only ckpt_only =
  let module Litmus = Shasta_check.Litmus in
  let rc = ref 0 in
  let sweep mode =
    let reports = Litmus.check_crash_all ~mode ~budget ~max_runs () in
    List.iter (fun r -> Format.printf "%a@." Litmus.pp_crash_report r) reports;
    if List.exists (fun r -> r.Litmus.cc_failures <> []) reports then rc := 1
  in
  if not ckpt_only then sweep Litmus.Pull;
  if not pull_only then sweep (Litmus.Ckpt ckpt_interval);
  !rc

let crash_budget_arg =
  Arg.(
    value & opt int 1
    & info [ "budget" ] ~docv:"B"
        ~doc:"Schedule deviations allowed around each crash placement.")

let crash_max_runs_arg =
  Arg.(
    value & opt int 4_000
    & info [ "max-runs" ] ~docv:"N"
        ~doc:"Replay cap per scenario across all placements.")

let ckpt_interval_arg =
  Arg.(
    value & opt int 2_048
    & info [ "ckpt-interval" ] ~docv:"CYCLES"
        ~doc:"Checkpoint interval for the checkpoint+log sweep.")

let pull_only_arg =
  Arg.(
    value & flag
    & info [ "pull" ] ~doc:"Only the sharer-pull recovery sweep.")

let ckpt_only_arg =
  Arg.(
    value & flag
    & info [ "ckpt" ] ~doc:"Only the checkpoint+log recovery sweep.")

let crash_cmd =
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Crash-fault litmus sweep: fail-stop a node at every \
          in-flight-message window of each litmus scenario and require \
          recovery (sharer-pull and checkpoint+log) to leave the survivors \
          coherent — sanitizer, post-run invariants, and outcome checks \
          clean, or the typed Recovery_violation")
    Term.(
      const run_crash $ crash_budget_arg $ crash_max_runs_arg
      $ ckpt_interval_arg $ pull_only_arg $ ckpt_only_arg)

(* ------------------------------------------------------------------ *)
(* verify: the static-analysis passes (no simulation except the
   conformance runs and the lock-graph collection). *)

let run_verify reach locks dead fault bound seeds =
  let module Verify = Shasta_verify in
  let module Reach = Verify.Reach in
  (* No pass selected = every pass. *)
  let all = (not reach) && not locks in
  let reach = reach || all and locks = locks || all in
  let rc = ref 0 in
  if reach then begin
    let explore ?fault ?(stop = false) ?(crashes = false) () =
      Reach.explore
        { Reach.default_params with Reach.bound; fault; crashes;
          stop_at_first = stop }
    in
    match fault with
    | Some f ->
      (* Inverted gate: the injected fault must be exposed — success is
         a reachable violating state with its counterexample. *)
      let r = explore ~fault:f ~stop:true () in
      Format.printf "%a@." Reach.pp_result r;
      (match r.Reach.r_violations with
      | v :: _ -> Format.printf "%a@." Reach.pp_violation v
      | [] ->
        Printf.printf "FAIL: injected fault exposed no violating state\n";
        rc := 1)
    | None ->
      (* Clean exhaustive exploration: zero violations expected. *)
      let r = explore () in
      Format.printf "%a@." Reach.pp_result r;
      List.iter
        (fun v ->
          Format.printf "%a@." Reach.pp_violation v;
          rc := 1)
        r.Reach.r_violations;
      if dead then Format.printf "%a@." Reach.pp_dead (Reach.dead_report r);
      (* Both fault injections must be exposed by the same exploration. *)
      List.iter
        (fun (name, f) ->
          let rf = explore ~fault:f ~stop:true () in
          match rf.Reach.r_violations with
          | v :: _ ->
            Printf.printf "fault %s: exposed (%s)\n" name v.Reach.v_message
          | [] ->
            Printf.printf "fault %s: NOT exposed\n" name;
            rc := 1)
        [
          ("skip-private-downgrade", Config.Skip_private_downgrade);
          ("skip-flag-stamp", Config.Skip_flag_stamp);
        ];
      (* Crash transitions: re-explore with the node-crash step enabled
         (fail-stop plus Recover.rebuild as one atomic action at every
         state); the rebuilt states must satisfy the same invariant
         sweep. *)
      let rcr = explore ~crashes:true () in
      Format.printf "crash: %a@." Reach.pp_result rcr;
      List.iter
        (fun v ->
          Format.printf "%a@." Reach.pp_violation v;
          rc := 1)
        rcr.Reach.r_violations;
      if dead then
        Format.printf "crash: %a@." Reach.pp_dead (Reach.dead_report rcr);
      (* Conformance: litmus runs may only perform model-vocabulary
         transitions. *)
      let reports = Shasta_check.Conformance.check_all ~seeds () in
      List.iter
        (fun r ->
          Format.printf "%a@." Shasta_check.Conformance.pp_report r;
          if r.Shasta_check.Conformance.mismatches <> [] then rc := 1)
        reports
  end;
  if locks then begin
    let g = Shasta_verify.Lockgraph.create () in
    List.iter
      (fun ((name, maker) : string * App.maker) ->
        let inst = maker () in
        let cfg =
          Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4
            ~heap_bytes:(App.heap inst) ()
        in
        let h = Dsm.create cfg in
        let body, _verify = inst.App.setup h in
        Dsm.add_observer h (Shasta_verify.Lockgraph.observer g);
        Dsm.run h body;
        ignore name)
      Registry.all;
    Printf.printf "locks: %d distinct acquisition edges across %d apps\n"
      (List.length (Shasta_verify.Lockgraph.edges g))
      (List.length Registry.all);
    match Shasta_verify.Lockgraph.cycles g with
    | [] -> Printf.printf "locks: no potential deadlock cycles\n"
    | cs ->
      List.iter
        (fun c ->
          Printf.printf "locks: %s\n"
            (Shasta_verify.Lockgraph.describe_cycle c))
        cs;
      rc := 1
  end;
  !rc

let reach_arg =
  Arg.(
    value & flag
    & info [ "reach" ]
        ~doc:
          "Exhaustively explore the reachable state space of the \
           simulator's own coherence handlers, run on an abstract block \
           shared by 2 nodes of 2 processors: the clean model must satisfy \
           every invariant, both fault injections must be exposed with a \
           counterexample, and the litmus scenarios' runs must conform to \
           the model's label vocabulary.")

let locks_arg =
  Arg.(
    value & flag
    & info [ "locks" ]
        ~doc:
          "Collect the lock-acquisition graph from instrumented runs of \
           every registered app and report potential deadlock cycles.")

let dead_arg =
  Arg.(
    value & flag
    & info [ "dead" ]
        ~doc:
          "With $(b,--reach): also report dead model branches and unmodeled \
           message tags (informational; does not affect the exit code).")

let bound_arg =
  Arg.(
    value & opt int 2
    & info [ "bound" ] ~docv:"N"
        ~doc:"In-flight message bound per (src, dst) pair in the model.")

let seeds_arg =
  Arg.(
    value & opt int 64
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Fuzzed schedules per litmus scenario for the conformance pass.")

let verify_fault_arg =
  Arg.(
    value & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"F"
        ~doc:
          "With $(b,--reach): explore with the protocol fault \
           (skip-private-downgrade|skip-flag-stamp) injected; the run \
           SUCCEEDS only if a violating state is reachable, and prints its \
           minimal counterexample.")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static analyses: exhaustive protocol-model checking with \
          conformance against real runs, and lock-order deadlock analysis")
    Term.(
      const run_verify $ reach_arg $ locks_arg $ dead_arg
      $ verify_fault_arg $ bound_arg $ seeds_arg)

let trace_proc_arg =
  Arg.(
    value & opt_all int []
    & info [ "proc" ] ~docv:"P"
        ~doc:"Only events executed by processor $(docv) (repeatable).")

let trace_block_arg =
  Arg.(
    value & opt_all string []
    & info [ "block" ] ~docv:"ADDR"
        ~doc:
          "Only events touching the block at address $(docv) (decimal or 0x \
           hex; repeatable). The structured successor of the old \
           SHASTA_TRACE_BLOCK printf tracing.")

let trace_kind_arg =
  let classes = Shasta_core.Event.classes in
  Arg.(
    value
    & opt_all (enum (List.map (fun c -> (c, c)) classes)) []
    & info [ "kind" ] ~docv:"K"
        ~doc:
          ("Only events of class $(docv): " ^ String.concat ", " classes
         ^ " (repeatable)."))

let trace_from_arg =
  Arg.(
    value & opt (some int) None
    & info [ "from" ] ~docv:"CYCLE" ~doc:"Only events at or after $(docv).")

let trace_upto_arg =
  Arg.(
    value & opt (some int) None
    & info [ "to" ] ~docv:"CYCLE" ~doc:"Only events at or before $(docv).")

let trace_limit_arg =
  Arg.(
    value & opt (some int) None
    & info [ "limit" ] ~docv:"N"
        ~doc:"Print only the newest $(docv) matching events.")

let trace_capacity_arg =
  Arg.(
    value & opt (some int) None
    & info [ "capacity" ] ~docv:"N"
        ~doc:
          "Flight-recorder ring capacity per processor (rounded up to a \
           power of two; default 65536). Oldest events are overwritten on \
           overflow.")

let trace_chrome_arg =
  Arg.(
    value & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write the matching events as Chrome trace_event JSON to $(docv) \
           (load in chrome://tracing or Perfetto).")

let trace_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the metrics summary (miss latency, downgrade round-trip, \
           message size and per-kind counts, home occupancy).")

let trace_no_dump_arg =
  Arg.(
    value & flag
    & info [ "no-dump" ]
        ~doc:"Suppress the text event dump (useful with $(b,--chrome)).")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with the structured flight recorder attached and \
          dump/export its protocol event stream")
    Term.(
      const run_trace $ app_arg $ nprocs_arg $ protocol_arg $ clustering_arg
      $ vg_arg $ scale_arg $ seed_arg $ trace_proc_arg $ trace_block_arg
      $ trace_kind_arg $ trace_from_arg $ trace_upto_arg $ trace_limit_arg
      $ trace_capacity_arg $ trace_chrome_arg $ trace_stats_arg
      $ trace_no_dump_arg)

let () =
  let doc = "Shasta fine-grain software DSM simulator (HPCA'98 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "shasta" ~doc)
          [ run_cmd; report_cmd; ycsb_cmd; check_cmd; crash_cmd; verify_cmd;
            trace_cmd;
            list_cmd ]))
