(* The simulator's benchmark. See README.md in this directory.

   Usage (from the repository root; run.sh builds and runs perf.exe):
     bash perfbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
     bash perfbench/run.sh --smoke

   W is one of splash, kv-update, kv-read, verify. A run measures
   set-up in fresh child processes, then repeats whole timed passes of
   the workload until S seconds have elapsed, timing a calibration
   kernel (Calib) around every segment so that host times can be
   corrected for load on a shared machine. With --trace 1 it adds one
   traced pass and the warm layer probes. The last line of standard
   output is one JSON object: the end-to-end metrics, or with --trace 1
   the per-layer metrics. --smoke runs every workload at a tiny size,
   traced, and checks the metric names and units against BENCHMARK.json
   and the virtual-time digests against expected/smoke. *)

module W = Workloads
module Stats = Shasta_core.Stats

let now = Unix.gettimeofday
let median = Probes.median
let ( // ) = Filename.concat

(* Config.create reads these silently, and Ycsb and Litmus build their
   configurations without overriding them: each would change the
   measured program. *)
let pin_environment () =
  let refuse name ok =
    match Sys.getenv_opt name with
    | Some v when not (ok v) ->
      Printf.eprintf "perf: %s=%S changes the measured program; unset it\n"
        name v;
      exit 2
    | _ -> ()
  in
  let off v = v = "" || v = "0" in
  refuse "SHASTA_SANITIZE" off;
  refuse "SHASTA_TRACE" off;
  refuse "SHASTA_CKPT" off;
  refuse "SHASTA_FASTPATH" (fun v -> v <> "0");
  refuse "SHASTA_SHARDS" (fun v -> v = "1")

let read_file file = In_channel.with_open_bin file In_channel.input_all

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* Virtual-time references. *)

let write_digest file digest =
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) digest)

let read_digest file =
  String.split_on_char '\n' (read_file file)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
         | _ -> None)

(* Quantities whose value differs, counting keys present on one side
   only. *)
let drift reference digest =
  let differs l1 l2 =
    List.length
      (List.filter (fun (k, v) -> List.assoc_opt k l2 <> Some v) l1)
  in
  differs digest reference
  + List.length
      (List.filter (fun (k, _) -> not (List.mem_assoc k digest)) reference)

let reference_file ~root ~smoke (w : W.t) ~seed =
  let dir = root // "perfbench" // "expected" in
  if smoke then dir // "smoke" // (w.name ^ ".txt")
  else if w.seeded then dir // Printf.sprintf "%s.%d.txt" w.name seed
  else dir // (w.name ^ ".txt")

(* ------------------------------------------------------------------ *)
(* Calibrated time: wall seconds scaled by Calib.reference_s over the
   mean of the calibration samples taken just before and just after. *)
let calibrated wall ~before ~after =
  wall *. Calib.reference_s /. ((before +. after) /. 2.0)

(* Set-up time: fresh processes, each running only the workload's
   set-up, timed from spawn to exit. Returns the median (wall,
   calibrated) seconds. *)
let setup_seconds ~workload ~seed ~smoke ~count =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    [ Sys.executable_name; "--setup-only"; "--workload"; workload; "--seed";
      string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let before = ref (Calib.sample ()) in
  let one () =
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
        devnull Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    let wall = now () -. t0 in
    if status <> Unix.WEXITED 0 then failwith "set-up child process failed";
    let after = Calib.sample () in
    let cal = calibrated wall ~before:!before ~after in
    before := after;
    (wall, cal)
  in
  let times = List.init count (fun _ -> one ()) in
  Unix.close devnull;
  (median (List.map fst times), median (List.map snd times))

let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  sim_drift : int option;  (** [None]: no reference for this seed *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
}

let m name unit_ value = { name; value; unit_ }

let per_layer_metrics (w : W.t) (tr : W.tracer) ~digest ~gc0 ~gc1 ~probes
    ~traced_s ~wall_s ~setup_wall ~calib_s =
  let l = tr.W.ledger and sp = tr.W.spans in
  let st = l.W.stats in
  let f = float_of_int in
  let ratio a b = if b = 0 then 0.0 else f a /. f b in
  let d k = Option.value ~default:0 (List.assoc_opt k digest) in
  let dsum suffix =
    List.fold_left
      (fun a (k, v) -> if String.ends_with ~suffix k then a + v else a)
      0 digest
  in
  let probe name = (List.find (fun p -> p.Probes.name = name) probes).Probes.value in
  let run_s = w.W.run_s sp in
  let misses = Stats.total_misses st in
  let msgs = l.W.msgs_remote + l.W.msgs_local + l.W.msgs_downgrade in
  let attrib =
    [
      (* A daxpy element is 3 program accesses. *)
      ( "dsm",
        (probe "probe.dsm.load_hit_ns"
        *. f (st.Stats.accesses - st.Stats.prog_accesses))
        +. (probe "probe.dsm.prog_ns" /. 3.0 *. f st.Stats.prog_accesses) );
      ( "engine",
        (probe "probe.engine.switch_ns" *. f l.W.performed)
        +. (probe "probe.engine.elided_ns" *. f l.W.elided) );
      ("protocol", probe "probe.protocol.read_miss_ns" *. f misses);
      ("net", probe "probe.net.send_poll_ns" *. f msgs);
    ]
    |> List.map (fun (k, ns) -> (k, ns /. 1e9))
  in
  let miss kind kn =
    List.map
      (fun (three_hop, hn) ->
        m (Printf.sprintf "protocol.misses.%s.%s" kn hn) "count"
          (f (Stats.miss_count st { Stats.kind; three_hop })))
      [ (false, "2hop"); (true, "3hop") ]
  in
  let kv_class c =
    let n = "kv." ^ c in
    [
      m (n ^ ".p50_cycles") "cycles" (f (d (n ^ ".p50")));
      m (n ^ ".p99_cycles") "cycles" (f (d (n ^ ".p99")));
      m (n ^ ".p999_cycles") "cycles" (f (d (n ^ ".p999")));
      m (n ^ ".msgs_per_op") "msgs/op" (ratio (d (n ^ ".msgs")) (d (n ^ ".ops")));
    ]
  in
  let mb words = words *. 8.0 /. 1048576.0 in
  [
    m "dsm.accesses" "count" (f st.Stats.accesses);
    m "dsm.prog_share" "ratio" (ratio st.Stats.prog_accesses st.Stats.accesses);
    m "dsm.fast_hit_rate" "ratio" (ratio st.Stats.fast_hits st.Stats.checks);
    m "dsm.host_ns_per_access" "ns" (run_s *. 1e9 /. f (max 1 st.Stats.accesses));
    m "engine.yields_performed" "count" (f l.W.performed);
    m "engine.yields_elided" "count" (f l.W.elided);
    m "engine.elide_rate" "ratio" (ratio l.W.elided (l.W.performed + l.W.elided));
    m "engine.host_ns_per_yield" "ns" (run_s *. 1e9 /. f (max 1 l.W.performed));
  ]
  @ miss Shasta_core.Msg.Read "read"
  @ miss Shasta_core.Msg.Readex "readex"
  @ miss Shasta_core.Msg.Upgrade "upgrade"
  @ [
      m "protocol.private_upgrades" "count" (f st.Stats.private_upgrades);
      m "protocol.false_misses" "count" (f st.Stats.false_misses);
      m "protocol.downgrades_sent" "count" (f st.Stats.downgrades_sent);
      m "protocol.host_us_per_miss" "us" (run_s *. 1e6 /. f (max 1 misses));
      m "net.msgs_remote" "count" (f l.W.msgs_remote);
      m "net.msgs_local" "count" (f l.W.msgs_local);
      m "net.msgs_downgrade" "count" (f l.W.msgs_downgrade);
      m "net.bytes_remote" "bytes" (f l.W.bytes_remote);
      m "machine.created" "count" (f l.W.machines);
    ]
  @ List.map
      (fun c ->
        m ("vt." ^ Stats.category_name c ^ "_cycles") "cycles" (f (Stats.cycles st c)))
      Stats.categories
  @ [ m "vt.parallel_cycles" "cycles" (f l.W.parallel_cycles) ]
  @ kv_class "read" @ kv_class "update"
  @ [
      m "kv.unattributed_msgs" "count" (f (d "kv.other.msgs"));
      m "litmus.runs" "count" (f (dsum ".runs"));
      m "litmus.decision_points" "count" (f (dsum ".decision_points"));
      m "reach.states" "count" (f (d "reach.states"));
      m "reach.edges" "count" (f (d "reach.edges"));
      m "span.machine.create_s" "s" (Spans.total sp "machine.create");
      m "span.dsm.run_s" "s" run_s;
      m "trace.pass_s" "s" traced_s;
      m "trace_overhead" "ratio" ((traced_s /. wall_s) -. 1.0);
      m "gc.minor" "count" (f (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      m "gc.major" "count" (f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      m "gc.promoted_mb" "MB" (mb (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
      m "gc.top_heap_mb" "MB" (mb (f gc1.Gc.top_heap_words));
    ]
  @ List.map (fun p -> m p.Probes.name p.Probes.unit_ p.Probes.value) probes
  @ List.map (fun (k, s) -> m ("attrib." ^ k ^ "_s") "s" s) attrib
  @ [
      m "attrib.unexplained_s" "s"
        (run_s -. List.fold_left (fun a (_, s) -> a +. s) 0.0 attrib);
      m "host.wall_s" "s" wall_s;
      m "host.setup_wall_s" "s" setup_wall;
      m "host.calib_sample_s" "s" calib_s;
    ]

(* Everything but the final JSON line goes to [log]. *)
let measure ~log ~root ~smoke ~seed ~seconds ~trace (w : W.t) =
  let say fmt = Printf.bprintf log fmt in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  say "workload %s, seed %d%s\n" w.W.name seed
    (if w.W.seeded then "" else " (inputs are fixed; the seed is recorded only)");
  let setup_wall, setup_s =
    setup_seconds ~workload:w.W.name ~seed ~smoke ~count:(if smoke then 1 else 5)
  in
  w.W.setup ~seed;
  (* A pass is one or more segments; a calibration sample separates
     consecutive segments and passes, and each segment is calibrated by
     the samples on either side of it. *)
  let samples = ref [ Calib.sample () ] in
  let timed_pass () =
    (* Start from a collected heap. Otherwise whether the previous
       pass's machine is still uncollected when this one builds its own
       depends on GC pacing, which varies with the inputs and moved kv
       peak RSS by 8 MB between seeds. *)
    Gc.full_major ();
    let wall = ref 0.0 and cal = ref 0.0 in
    let mark = ref (now ()) in
    let tick () =
      let dt = now () -. !mark in
      let c = Calib.sample () in
      wall := !wall +. dt;
      cal := !cal +. calibrated dt ~before:(List.hd !samples) ~after:c;
      samples := c :: !samples;
      mark := now ()
    in
    let p = w.W.pass ~seed None ~tick in
    tick ();
    (!wall, !cal, p)
  in
  let t_start = now () in
  let peak_rss = ref 0.0 in
  let rec timed acc =
    let r = timed_pass () in
    if acc = [] then peak_rss := peak_rss_mb ();
    let acc = r :: acc in
    if now () -. t_start >= seconds then List.rev acc else timed acc
  in
  let passes = timed [] in
  List.iteri
    (fun i (wall, cal, _) ->
      say "pass %d: %.3f s wall, %.3f s calibrated\n" (i + 1) wall cal)
    passes;
  let wall_s = median (List.map (fun (x, _, _) -> x) passes) in
  let host_s = median (List.map (fun (_, x, _) -> x) passes) in
  let calib_s = median !samples in
  let passes = List.map (fun (_, _, p) -> p) passes in
  let first = List.hd passes in
  let digest = first.W.digest in
  if List.exists (fun p -> p.W.digest <> digest) passes then
    problem "timed passes disagree in virtual time";
  let attempted = ref 0 and failed = ref 0 in
  let count (p : W.pass) =
    attempted := !attempted + p.W.ops;
    failed := !failed + p.W.failed;
    List.iter problem p.W.problems
  in
  List.iter count passes;
  let out = root // ".perfbench" in
  mkdir_p out;
  let tag =
    Printf.sprintf "%s%s.%d" (if smoke then "smoke." else "") w.W.name seed
  in
  write_digest (out // (tag ^ ".digest.txt")) digest;
  let ref_file = reference_file ~root ~smoke w ~seed in
  let sim_drift =
    if Sys.file_exists ref_file then Some (drift (read_digest ref_file) digest)
    else None
  in
  let end_to_end =
    [
      m "host_s" "s" host_s;
      m "throughput" "work/s" (first.W.work /. host_s);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" !peak_rss;
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      let tr = { W.spans = Spans.create (); ledger = W.ledger () } in
      let gc0 = Gc.quick_stat () in
      let t0 = now () in
      let p = w.W.pass ~seed (Some tr) ~tick:ignore in
      let traced_s = now () -. t0 in
      let gc1 = Gc.quick_stat () in
      count p;
      if p.W.digest <> digest then
        problem "traced pass disagrees with the timed passes in virtual time";
      Spans.write_chrome tr.W.spans (out // (tag ^ ".spans.json"));
      say "traced pass: %.3f s; spans in %s\n" traced_s
        (out // (tag ^ ".spans.json"));
      say "%-34s %7s %10s %10s\n" "span" "count" "total_s" "self_s";
      List.iter
        (fun (name, (c, tot, self)) ->
          say "%-34s %7d %10.4f %10.4f\n" name c tot self)
        (Spans.summary tr.W.spans);
      let probes = Probes.all ~scale:(if smoke then 100 else 1) in
      List.iter
        (fun p -> say "%s: N = %d per batch\n" p.Probes.name p.Probes.n)
        probes;
      per_layer_metrics w tr ~digest ~gc0 ~gc1 ~probes ~traced_s ~wall_s
        ~setup_wall ~calib_s
    end
  in
  List.iter
    (fun x -> say "%-32s %.6g %s\n" x.name x.value x.unit_)
    (end_to_end @ per_layer);
  say "work %.0f %s per pass, %d passes\n" first.W.work w.W.work_unit
    (List.length passes);
  (match sim_drift with
  | Some n -> say "sim_drift %d count (reference %s)\n" n ref_file
  | None ->
    say "sim_drift not checked: no reference %s (digest in %s)\n"
      ref_file (out // (tag ^ ".digest.txt")));
  say "fail_rate %.6g ratio (ops %d, ops_failed %d)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !attempted !failed;
  let nonfinite =
    List.filter
      (fun x -> not (Float.is_finite x.value))
      (end_to_end @ per_layer)
  in
  List.iter (fun x -> problem (x.name ^ " is not a finite number")) nonfinite;
  List.iter (fun s -> say "problem: %s\n" s) (List.rev !problems);
  {
    workload = w.W.name;
    correct = !problems = [] && !failed = 0 && (sim_drift = None || sim_drift = Some 0);
    attempted = !attempted;
    failed = !failed;
    sim_drift;
    end_to_end;
    per_layer;
  }

let result_json r metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
              (if Float.is_finite x.value then x.value else 0.0)
              x.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* --smoke *)

let smoke ~root =
  let bench = Json.parse (read_file (root // "BENCHMARK.json")) in
  let list key =
    match Json.member key bench with Some (Json.Arr l) -> l | _ -> []
  in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
  let declared key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  let errors = ref [] in
  let error s = errors := s :: !errors in
  let workloads = W.all ~smoke:true in
  if List.map (str "name") (list "workloads") <> List.map (fun w -> w.W.name) workloads
  then error "BENCHMARK.json workloads differ from the benchmark's";
  let check_metrics r key printed =
    let printed = List.map (fun x -> (x.name, x.unit_)) printed in
    List.iter
      (fun (n, u) ->
        if List.assoc_opt n printed <> Some u then
          error (Printf.sprintf "%s: %s metric %s (%s) not printed" r.workload key n u))
      (declared key);
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n (declared key)) then
          error (Printf.sprintf "%s: %s not declared in BENCHMARK.json %s" r.workload n key))
      printed
  in
  List.iter
    (fun w ->
      let log = Buffer.create 4096 in
      let before = List.length !errors in
      let r = measure ~log ~root ~smoke:true ~seed:42 ~seconds:0.0 ~trace:true w in
      check_metrics r "end_to_end" r.end_to_end;
      check_metrics r "per_layer" r.per_layer;
      if r.failed <> 0 then error (w.W.name ^ ": fail_rate is not 0");
      if r.sim_drift <> Some 0 then error (w.W.name ^ ": sim_drift is not 0");
      if not r.correct then error (w.W.name ^ ": incorrect");
      if List.length !errors > before then print_string (Buffer.contents log))
    workloads;
  match List.rev !errors with
  | [] -> print_endline "smoke: ok"
  | es ->
    List.iter (fun e -> Printf.printf "smoke: %s\n" e) es;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_string
    "usage: perf.exe --workload {splash|kv-update|kv-read|verify} [--seed N] \
     [--seconds S] [--trace 0|1] [--root DIR]\n\
    \       perf.exe --smoke [--root DIR]\n";
  exit 2

let () =
  pin_environment ();
  let workload = ref None and seed = ref 42 and seconds = ref 20.0 in
  let trace = ref false and smoke_mode = ref false and setup_only = ref false in
  let root = ref "." in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s: expected an integer, got %S\n" flag v;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_int (int_arg "--seconds" v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> usage ());
      parse rest
    | "--root" :: v :: rest ->
      root := v;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | "--setup-only" :: rest ->
      setup_only := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let find name =
    match List.find_opt (fun w -> w.W.name = name) (W.all ~smoke:!smoke_mode) with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()
  in
  match (!setup_only, !smoke_mode, !workload) with
  | true, _, Some name -> (find name).W.setup ~seed:!seed
  | false, true, None -> smoke ~root:!root
  | false, false, Some name ->
    let log = Buffer.create 4096 in
    let r =
      measure ~log ~root:!root ~smoke:false ~seed:!seed ~seconds:!seconds
        ~trace:!trace (find name)
    in
    print_string (Buffer.contents log);
    print_endline (result_json r (if !trace then r.per_layer else r.end_to_end))
  | _ -> usage ()
