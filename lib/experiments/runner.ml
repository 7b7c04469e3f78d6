module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module App = Shasta_apps.App

type spec = {
  app : string;
  vg : bool;
  scale : float;
  variant : Config.variant;
  nprocs : int;
  clustering : int;
  checks : bool;
  smp_sync : bool;
  share_directory : bool;
}

let base ?(vg = false) ?(scale = 1.0) app nprocs =
  {
    app;
    vg;
    scale;
    variant = Config.Base;
    nprocs;
    clustering = 1;
    checks = true;
    smp_sync = false;
    share_directory = false;
  }

let smp ?(vg = false) ?(scale = 1.0) app nprocs ~clustering =
  {
    app;
    vg;
    scale;
    variant = Config.Smp;
    nprocs;
    clustering;
    checks = true;
    smp_sync = false;
    share_directory = false;
  }

let sequential ?(scale = 1.0) app =
  {
    app;
    vg = false;
    scale;
    variant = Config.Base;
    nprocs = 1;
    clustering = 1;
    checks = false;
    smp_sync = false;
    share_directory = false;
  }

type result = {
  spec : spec;
  workload : string;
  parallel_cycles : int;
  stats : Stats.t;
  per_proc : Stats.t array;
  local_msgs : int;
  remote_msgs : int;
  downgrade_msgs : int;
  verdict : App.verdict;
  yields : int * int;
  sites : Shasta_sim.Engine.sites;
  metrics : Shasta_trace.Metrics.t option;
}

(* The memo cache is read and filled from the coordinating domain and —
   during [run_batch] — observed while worker domains execute misses, so
   every access goes through [cache_mutex]. Results themselves are
   immutable once constructed. *)
let cache : (spec, result) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()
let with_cache f = Mutex.protect cache_mutex f

(* Harness knob, read once per run: SHASTA_TRACE attaches the metrics
   observer. It is an observer: with the knob off nothing is installed,
   and simulated time is bit-identical either way. *)
let env_trace () =
  match Sys.getenv_opt "SHASTA_TRACE" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let execute spec =
  let maker = Shasta_apps.Registry.find spec.app in
  let inst = maker ~vg:spec.vg ~scale:spec.scale () in
  let cfg =
    Config.create ~variant:spec.variant ~nprocs:spec.nprocs
      ~clustering:spec.clustering ~checks_enabled:spec.checks
      ~heap_bytes:(App.heap inst) ~smp_sync:spec.smp_sync
      ~share_directory:spec.share_directory ()
  in
  let h = Dsm.create cfg in
  (* SHASTA_SANITIZE=1 attaches the online invariant sanitizer (and =2
     additionally the happens-before race detector) to every experiment
     run; Config.create reads the variable when [?sanitize] is omitted.
     A violation or race fails the run like a verification failure. *)
  let san =
    if cfg.Config.sanitize > 0 then Some (Shasta_check.Sanitizer.attach (Dsm.machine h))
    else None
  in
  let rd =
    if cfg.Config.sanitize > 1 then Some (Shasta_check.Races.attach (Dsm.machine h))
    else None
  in
  let metrics =
    if env_trace () then Some (Shasta_trace.Metrics.attach (Dsm.machine h))
    else None
  in
  let body, verify = inst.App.setup h in
  Dsm.run h body;
  (match san with
  | Some san when Shasta_check.Sanitizer.violation_count san > 0 ->
    failwith
      (Printf.sprintf "experiment run violated protocol invariants: %s (%s)"
         spec.app
         (String.concat "; "
            (List.map Shasta_core.Inspect.describe
               (Shasta_check.Sanitizer.violations san))))
  | _ -> ());
  (match rd with
  | Some rd when Shasta_check.Races.race_count rd > 0 ->
    failwith
      (Printf.sprintf "experiment run raced: %s (%s)" spec.app
         (String.concat "; "
            (List.map Shasta_check.Races.describe
               (Shasta_check.Races.races rd))))
  | _ -> ());
  let verdict = verify h in
  if not verdict.App.ok then
    failwith
      (Printf.sprintf "experiment run failed verification: %s (%s)" spec.app
         verdict.App.detail);
  let downgrade_msgs = Dsm.downgrade_messages h in
  {
    spec;
    workload = inst.App.workload;
    parallel_cycles = Dsm.parallel_cycles h;
    stats = Dsm.aggregate_stats h;
    per_proc = Dsm.proc_stats h;
    local_msgs = Dsm.messages_local h - downgrade_msgs;
    remote_msgs = Dsm.messages_remote h;
    downgrade_msgs;
    verdict;
    yields = Dsm.sched_counts h;
    sites = Dsm.sched_sites h;
    metrics;
  }

let run spec =
  match with_cache (fun () -> Hashtbl.find_opt cache spec) with
  | Some r -> r
  | None ->
    let r = execute spec in
    with_cache (fun () -> Hashtbl.replace cache spec r);
    r

(* Batch execution: dedupe the request list against itself and the
   cache, execute the misses on a domain pool, publish under the mutex.
   Per-spec once-semantics holds because (a) duplicates within the batch
   are collapsed here, and (b) batches and [run] are issued sequentially
   by the coordinating domain, so a spec cached by an earlier batch is
   filtered out before any worker sees the later one. Each [execute] is
   self-contained (fresh machine, no cross-run state — DESIGN.md §3c),
   and its result is independent of which domain runs it, so the cache
   contents — and everything rendered from them — are identical to
   [jobs = 1] in-place execution. *)
let run_batch ?jobs specs =
  let jobs = match jobs with Some j -> j | None -> Shasta_util.Pool.default_jobs () in
  let misses =
    with_cache (fun () ->
        let seen = Hashtbl.create 64 in
        List.filter
          (fun spec ->
            if Hashtbl.mem cache spec || Hashtbl.mem seen spec then false
            else begin
              Hashtbl.add seen spec ();
              true
            end)
          specs)
  in
  if misses <> [] then
    Shasta_util.Pool.with_pool ~jobs (fun pool ->
        misses
        |> List.map (fun spec ->
               Shasta_util.Pool.submit pool (fun () ->
                   let r = execute spec in
                   with_cache (fun () -> Hashtbl.replace cache spec r)))
        |> List.iter Shasta_util.Pool.await);
  List.length misses

let seconds cycles = float_of_int cycles /. 3.0e8

let speedup spec =
  let seq = run (sequential ~scale:spec.scale spec.app) in
  let par = run spec in
  float_of_int seq.parallel_cycles /. float_of_int par.parallel_cycles

let cache_size () = with_cache (fun () -> Hashtbl.length cache)

let fastpath_by_app results =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let st = r.stats in
      let c, fh, a, pa =
        Option.value ~default:(0, 0, 0, 0) (Hashtbl.find_opt tbl r.spec.app)
      in
      Hashtbl.replace tbl r.spec.app
        ( c + st.Stats.checks,
          fh + st.Stats.fast_hits,
          a + st.Stats.accesses,
          pa + st.Stats.prog_accesses ))
    results;
  Hashtbl.fold (fun app t acc -> (app, t) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
