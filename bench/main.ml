(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the simulated cluster, plus Bechamel
   micro-benchmarks of the simulator's protocol fast paths.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 fig3  # selected targets
     dune exec bench/main.exe -- --quick      # reduced problem scale
     dune exec bench/main.exe -- --json fig3  # also write BENCH_fig3.json
     dune exec bench/main.exe -- --jobs 4     # simulations on 4 domains
   Targets: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 micro anl
            ablation bechamel

   Before rendering a target, its full spec list (sequential speedup
   baselines included) is warmed through Runner.run_batch: cache misses
   execute concurrently on a pool of --jobs OCaml domains (default: the
   SHASTA_JOBS environment variable, else the machine's core count), and
   the render then reads everything from the cache. Each simulation is
   deterministic and self-contained, so the tables printed to stdout are
   byte-identical whatever --jobs is; progress/timing lines go to stderr
   so stdout can be diffed across modes.

   With --json, each target additionally writes BENCH_<target>.json in
   the current directory recording host wall-clock seconds, the
   simulated cycles executed for that target (cache hits from earlier
   targets contribute zero cycles), the job count, and the scheduler's
   yield counters over the target's runs (see README "Benchmark JSON
   schema"). *)

module E = Shasta_experiments
module Engine = Shasta_sim.Engine

type target = {
  name : string;
  render : scale:float -> string;
  specs : scale:float -> E.Runner.spec list;
}

let targets : target list =
  List.map
    (fun t ->
      {
        name = t.E.Targets.name;
        render = t.E.Targets.render;
        specs = t.E.Targets.specs;
      })
    E.Targets.all
  @ [
      {
        name = "bechamel";
        render = (fun ~scale:_ -> Bechamel_suite.render ());
        specs = (fun ~scale:_ -> []);
      };
    ]

let host_cores () = Domain.recommended_domain_count ()

let write_json ~name ~wall ~runs ~cycles ~jobs ~performed ~elided
    ~cached_runs ~checks ~fast_hits ~crashes ~recovery_cycles =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  (* With SHASTA_TRACE=1 the runner aggregates protocol metrics over
     every traced run; record the cumulative aggregate alongside the
     counters (order-independent, so identical for any --jobs). *)
  let metrics =
    if E.Runner.traced_runs () > 0 then
      Printf.sprintf ",\n  \"traced_runs\": %d,\n  \"metrics\": %s"
        (E.Runner.traced_runs ())
        (Shasta_trace.Metrics.to_json (E.Runner.metrics_snapshot ()))
    else ""
  in
  (* Per-op-class tail-latency aggregate over every YCSB run so far;
     only present when the ycsb target ran. Merged in pid order per run
     and run order across runs, so identical for any --jobs. *)
  let ycsb =
    match Shasta_workload.Ycsb.totals_json () with
    | Some j -> Printf.sprintf ",\n  \"ycsb\": %s" j
    | None -> ""
  in
  (* A target that executed no Runner runs (ycsb builds its own
     machines; a later target may be served entirely from the cache)
     has no simulated time or fused-hit rate of its own: null, not 0. *)
  let if_ran f = if runs = 0 then "null" else f () in
  Printf.fprintf oc
    "{\n\
    \  \"target\": %S,\n\
    \  \"wall_seconds\": %.3f,\n\
    \  \"simulated_cycles\": %s,\n\
    \  \"simulated_seconds\": %s,\n\
    \  \"jobs\": %d,\n\
    \  \"host_cores\": %d,\n\
    \  \"yields_performed\": %d,\n\
    \  \"yields_elided\": %d,\n\
    \  \"fastpath\": %b,\n\
    \  \"hit_fastpath_rate\": %s,\n\
    \  \"crashes\": %d,\n\
    \  \"recovery_cycles\": %d,\n\
    \  \"cached_runs\": %d%s%s\n\
     }\n"
    name wall
    (if_ran (fun () -> string_of_int cycles))
    (if_ran (fun () -> Printf.sprintf "%.6f" (E.Runner.seconds cycles)))
    jobs (host_cores ()) performed elided
    (Shasta_core.Config.env_fastpath ())
    (if_ran (fun () ->
         Printf.sprintf "%.6f"
           (if checks = 0 then 0.0
            else float_of_int fast_hits /. float_of_int checks)))
    crashes recovery_cycles cached_runs metrics ycsb;
  close_out oc;
  Printf.eprintf "[wrote %s]\n%!" file

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--json] [--jobs N] [TARGET...]\ntargets: %s\n"
    (String.concat " " (List.map (fun t -> t.name) targets));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false and json = ref false and jobs = ref None in
  let wanted = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := Some j;
        parse rest
      | _ ->
        Printf.eprintf "--jobs: expected a positive integer, got %S\n" n;
        exit 2)
    | arg :: rest when String.length arg >= 7 && String.sub arg 0 7 = "--jobs=" -> (
      match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
      | Some j when j >= 1 ->
        jobs := Some j;
        parse rest
      | _ ->
        Printf.eprintf "--jobs: expected a positive integer, got %S\n" arg;
        exit 2)
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "unknown option %S\n" arg;
      usage ()
    | name :: rest ->
      wanted := name :: !wanted;
      parse rest
  in
  parse args;
  let scale = if !quick then 0.5 else 1.0 in
  let jobs =
    match !jobs with Some j -> j | None -> Shasta_util.Pool.default_jobs ()
  in
  let wanted =
    match List.rev !wanted with
    | [] -> List.map (fun t -> t.name) targets
    | names -> names
  in
  Printf.eprintf "[bench: %d job%s, %d host core%s]\n%!" jobs
    (if jobs = 1 then "" else "s")
    (host_cores ())
    (if host_cores () = 1 then "" else "s");
  List.iter
    (fun name ->
      match List.find_opt (fun t -> t.name = name) targets with
      | Some target ->
        let t0 = Unix.gettimeofday () in
        let c0 = E.Runner.simulated_cycles () in
        let yp0, ye0 = Engine.yield_counts () in
        let ck0, fh0 = E.Runner.fastpath_totals () in
        let cr0, rc0 = E.Runner.crash_totals () in
        let n0 = E.Runner.cache_size () in
        E.Runner.run_batch ~jobs (target.specs ~scale);
        let out = target.render ~scale in
        let wall = Unix.gettimeofday () -. t0 in
        print_string out;
        flush stdout;
        Printf.eprintf "[%s completed in %.1fs host time; %d cached runs]\n%!"
          name wall
          (E.Runner.cache_size ());
        if !json then begin
          let yp1, ye1 = Engine.yield_counts () in
          let ck1, fh1 = E.Runner.fastpath_totals () in
          let cr1, rc1 = E.Runner.crash_totals () in
          write_json ~name ~wall
            ~runs:(E.Runner.cache_size () - n0)
            ~cycles:(E.Runner.simulated_cycles () - c0)
            ~jobs ~performed:(yp1 - yp0)
            ~elided:(ye1 - ye0)
            ~checks:(ck1 - ck0) ~fast_hits:(fh1 - fh0)
            ~crashes:(cr1 - cr0) ~recovery_cycles:(rc1 - rc0)
            ~cached_runs:(E.Runner.cache_size ())
        end
      | None ->
        Printf.eprintf "unknown target %S; known: %s\n" name
          (String.concat " " (List.map (fun t -> t.name) targets));
        exit 2)
    wanted
