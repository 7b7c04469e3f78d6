(* The structured tracing subsystem as a test oracle.

   A downgrade-heavy two-node workload runs with the flight recorder
   and the metrics registry attached; its event stream is

   - compared against itself across fresh runs and against a checked-in
     snapshot (golden_trace.expected), pinning the protocol's visible
     event sequence across PRs;
   - required to be event-for-event identical under the run-ahead and
     always-yield schedulers — events are attributed to the executing
     processor at its virtual cycle, so the merged stream is a pure
     function of virtual time;
   - required to cost zero simulated cycles (bit-identical clocks with
     and without observers attached);
   - exported as Chrome trace_event JSON whose every object must carry
     ph/ts/pid/tid.

   Every event class ([Event.classes]) must occur in this workload or
   in a KV run, which adds the downgrade queue and replay events.

   Regenerate the snapshot (only when a protocol-visible change is
   intended and understood) with:

     SHASTA_GOLDEN_WRITE=$PWD/test/golden_trace.expected \
       dune exec test/test_trace.exe *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module Event = Shasta_core.Event
module Recorder = Shasta_trace.Recorder
module Metrics = Shasta_trace.Metrics
module Chrome = Shasta_trace.Chrome
module Histogram = Shasta_util.Histogram

let snapshot_file = "golden_trace.expected"

(* Downgrade demo in miniature: two 4-processor nodes; three writers on
   the owning node raise private exclusive entries over a handful of
   blocks, then a processor of the other node reads them all, forcing
   multi-message node downgrades; a lock-protected counter adds sync
   traffic. *)
let workload () =
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4
      ~heap_bytes:(1 lsl 20) ()
  in
  let h = Dsm.create cfg in
  let blocks = List.init 6 (fun _ -> Dsm.alloc h ~block_size:64 ~home:4 64) in
  (* No [~home] here: homes are page-granular, and re-pinning this page
     would silently move the six blocks above away from proc 4. *)
  let counter = Dsm.alloc h ~block_size:64 8 in
  let lk = Dsm.alloc_lock h in
  let bar = Dsm.alloc_barrier h in
  let body ctx =
    let p = Dsm.pid ctx in
    if p >= 4 && p < 7 then
      List.iter (fun a -> Dsm.store_float ctx a (float_of_int p)) blocks;
    Dsm.barrier ctx bar;
    if p = 0 then List.iter (fun a -> ignore (Dsm.load_float ctx a)) blocks;
    Dsm.lock ctx lk;
    Dsm.store_float ctx counter (Dsm.load_float ctx counter +. 1.0);
    Dsm.unlock ctx lk;
    Dsm.barrier ctx bar
  in
  (h, body)

let run_traced ?run_ahead ?capacity () =
  let h, body = workload () in
  let m = Dsm.machine h in
  let rec_ = Recorder.attach ?capacity m in
  let mx = Metrics.attach m in
  Dsm.run ?run_ahead h body;
  (h, rec_, mx)

let lines ?run_ahead () =
  let _, rec_, _ = run_traced ?run_ahead () in
  List.map Event.to_string (Recorder.events rec_)

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

(* ------------------------------------------------------------------ *)
(* Golden stream *)

let test_repeat_identical () =
  Alcotest.(check (list string)) "two fresh runs agree" (lines ()) (lines ())

let test_matches_snapshot () =
  if not (Sys.file_exists snapshot_file) then
    Alcotest.failf "missing snapshot %s" snapshot_file;
  Alcotest.(check (list string))
    "matches checked-in snapshot" (read_lines snapshot_file) (lines ())

(* The oracle property: the recorder sees the same events in the same
   order whichever scheduler drove the simulation. Structural equality
   over Event.t, not just rendered strings. *)
let test_scheduler_invariant () =
  let _, ra, _ = run_traced ~run_ahead:true () in
  let _, ay, _ = run_traced ~run_ahead:false () in
  let ea = Recorder.events ra and ey = Recorder.events ay in
  Alcotest.(check int) "same event count" (List.length ey) (List.length ea);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "event %d differs:\n  run-ahead:    %s\n  always-yield: %s"
          i (Event.to_string a) (Event.to_string b))
    (List.combine ea ey)

(* ------------------------------------------------------------------ *)
(* Overhead contract: observers never charge simulated cycles *)

let test_zero_added_cycles () =
  let bare =
    let h, body = workload () in
    Dsm.run h body;
    Dsm.parallel_cycles h
  in
  let traced, _, _ = run_traced () in
  Alcotest.(check int) "tracing adds zero simulated cycles" bare
    (Dsm.parallel_cycles traced)

(* ------------------------------------------------------------------ *)
(* Ring semantics *)

let test_ring_drops_oldest () =
  let _, full, _ = run_traced () in
  let _, small, _ = run_traced ~capacity:16 () in
  Alcotest.(check int) "same events appended" (Recorder.recorded full)
    (Recorder.recorded small);
  Alcotest.(check bool) "small ring dropped some" true
    (Recorder.dropped small > 0);
  Alcotest.(check int) "dropped = appended - retained"
    (Recorder.recorded small - List.length (Recorder.events small))
    (Recorder.dropped small);
  for p = 0 to 7 do
    let f = Recorder.proc_events full p and s = Recorder.proc_events small p in
    Alcotest.(check bool)
      (Printf.sprintf "proc %d retains at most the capacity" p)
      true
      (List.length s <= 16);
    (* flight-recorder semantics: what survives is the newest suffix *)
    let suffix_of l n =
      let rec drop l k = if k <= 0 then l else drop (List.tl l) (k - 1) in
      drop l (List.length l - n)
    in
    Alcotest.(check bool)
      (Printf.sprintf "proc %d retained the newest events" p)
      true
      (s = suffix_of f (List.length s))
  done

(* ------------------------------------------------------------------ *)
(* Filters *)

let test_filters () =
  let _, rec_, _ = run_traced () in
  let events = Recorder.events rec_ in
  let with_f f = List.filter (Event.matches f) events in
  let miss_ends = with_f { Event.no_filter with Event.kinds = [ "miss_end" ] } in
  Alcotest.(check bool) "some miss_end events" true (miss_ends <> []);
  Alcotest.(check bool) "kind filter selects only miss_end" true
    (List.for_all (fun e -> Event.class_name e = "miss_end") miss_ends);
  let p0 = with_f { Event.no_filter with Event.procs = [ 0 ] } in
  Alcotest.(check bool) "proc filter" true
    (p0 <> [] && List.for_all (fun e -> e.Event.proc = 0) p0);
  (match events with
  | [] -> Alcotest.fail "no events"
  | first :: _ ->
    let late =
      with_f { Event.no_filter with Event.from_ = Some (first.Event.time + 1) }
    in
    Alcotest.(check bool) "time filter excludes the first event" true
      (not (List.mem first late)));
  Alcotest.(check int) "no_filter keeps everything" (List.length events)
    (List.length (with_f Event.no_filter))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_sanity () =
  let h, rec_, mx = run_traced () in
  Alcotest.(check bool) "misses observed" true (Metrics.misses mx > 0);
  Alcotest.(check bool) "downgrades observed" true (Metrics.downgrades mx > 0);
  Alcotest.(check int) "every send has a recv" (Metrics.sends mx)
    (Metrics.recvs mx);
  Alcotest.(check int) "one latency sample per miss" (Metrics.misses mx)
    (Histogram.total (Metrics.miss_latency mx));
  Alcotest.(check int) "one rtt sample per node downgrade"
    (Metrics.downgrades mx)
    (Histogram.total (Metrics.downgrade_rtt mx));
  Alcotest.(check int) "one size sample per send" (Metrics.sends mx)
    (Histogram.total (Metrics.msg_size mx));
  let lat = Metrics.miss_latency mx in
  Alcotest.(check bool) "p50 <= p90 <= max" true
    (Histogram.percentile lat 0.5 <= Histogram.percentile lat 0.9
    && Histogram.percentile lat 0.9 <= Histogram.percentile lat 1.0);
  (* the recorder agrees with the counters *)
  let events = Recorder.events rec_ in
  let count cls =
    List.length (List.filter (fun e -> Event.class_name e = cls) events)
  in
  Alcotest.(check int) "recorder misses agree" (Metrics.misses mx)
    (count "miss_end");
  Alcotest.(check int) "recorder sends agree" (Metrics.sends mx) (count "send");
  (* merge is additive *)
  let agg = Metrics.create () in
  Metrics.merge_into ~into:agg mx;
  Metrics.merge_into ~into:agg mx;
  Alcotest.(check int) "merge_into adds counters" (2 * Metrics.misses mx)
    (Metrics.misses agg);
  let json = Metrics.to_json mx in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in metrics json") true
        (let re = Printf.sprintf "\"%s\"" key in
         let rec find i =
           i + String.length re <= String.length json
           && (String.sub json i (String.length re) = re || find (i + 1))
         in
         find 0))
    [ "misses"; "downgrades"; "miss_latency"; "p50"; "p99"; "msg_kinds" ];
  ignore (Dsm.parallel_cycles h)

(* ------------------------------------------------------------------ *)
(* Event vocabulary *)

(* One event of every payload constructor, in constructor order. *)
let one_of_each =
  let b = Shasta_mem.State_table.Shared and r = Shasta_core.Msg.Read in
  List.map
    (fun payload -> { Event.proc = 0; time = 0; payload })
    [
      State { node = 0; block = 0; from_ = b; to_ = b };
      Private { target = 0; block = 0; from_ = b; to_ = b };
      Pending { node = 0; block = 0; set = true };
      Pending_downgrade { node = 0; block = 0; set = true };
      Send { dst = 0; kind = 0; size = 0; block = 0 };
      Recv { src = 0; kind = 0; size = 0; block = 0 };
      Miss_start { block = 0; kind = r };
      Miss_end { block = 0; kind = r; start = 0 };
      Downgrade_ack { block = 0 };
      Downgrade_done { block = 0 };
      Downgrade_queued { block = 0; src = 0; kind = 0 };
      Downgrade_replay { block = 0; src = 0; kind = 0 };
      Lock_acquired { lock = 0 };
      Lock_released { lock = 0 };
      Barrier_arrive { barrier = 0; epoch = 0 };
      Barrier_leave { barrier = 0; epoch = 0 };
    ]

let test_classes_listed () =
  Alcotest.(check (list string))
    "Event.classes names each constructor once, in order"
    (List.map Event.class_name one_of_each)
    Event.classes

(* Events per class, counted as they are emitted (exact whatever the
   recorder's ring keeps). *)
let class_counts h =
  let counts = Hashtbl.create 16 in
  let add e =
    let c = Event.class_name e in
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  in
  Dsm.add_observer h (Shasta_core.Observer.of_events add);
  fun c -> Option.value ~default:0 (Hashtbl.find_opt counts c)

(* The run behind [shasta_cli trace kv -p 16 -c 4 --scale 0.5]: its KV
   traffic queues messages on open downgrade entries and replays them,
   which the golden workload never does. Between the two, every event
   class must occur. *)
let test_every_class () =
  let golden =
    let h, body = workload () in
    let count = class_counts h in
    Dsm.run h body;
    count
  in
  let kv =
    let inst = Shasta_apps.Registry.find "kv" ~scale:0.5 () in
    let cfg =
      Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4
        ~heap_bytes:(Shasta_apps.App.heap inst) ~seed:42 ()
    in
    let h = Dsm.create cfg in
    let count = class_counts h in
    let body, verify = inst.Shasta_apps.App.setup h in
    Dsm.run h body;
    Alcotest.(check bool) "kv verified" true (verify h).Shasta_apps.App.ok;
    count
  in
  Alcotest.(check bool) "kv queues on downgrade entries" true
    (kv "downgrade_queued" > 0);
  Alcotest.(check int) "kv replays every queued message"
    (kv "downgrade_queued") (kv "downgrade_replay");
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " occurs") true (golden c + kv c > 0))
    Event.classes

(* ------------------------------------------------------------------ *)
(* Chrome export: minimal JSON scan — the array must parse into objects
   and every object must carry ph/ts/pid/tid. *)

type json_tok = Obj_start | Obj_end | Arr_start | Arr_end

(* Tokenize just enough JSON: strings (with escapes) are skipped
   opaquely; everything structural is checked for balance. Returns the
   raw text of each top-level object of the array. *)
let split_objects s =
  let n = String.length s in
  let objs = ref [] and toks = ref [] in
  let depth = ref 0 and start = ref (-1) in
  let i = ref 0 in
  let fail msg = Alcotest.failf "chrome json: %s at byte %d" msg !i in
  while !i < n do
    (match s.[!i] with
    | '"' ->
      incr i;
      let rec skip () =
        if !i >= n then fail "unterminated string"
        else
          match s.[!i] with
          | '\\' -> i := !i + 2; skip ()
          | '"' -> ()
          | _ -> incr i; skip ()
      in
      skip ()
    | '{' ->
      toks := Obj_start :: !toks;
      if !depth = 1 then start := !i;
      incr depth
    | '}' ->
      toks := Obj_end :: !toks;
      decr depth;
      if !depth < 1 then fail "unbalanced }";
      if !depth = 1 then
        objs := String.sub s !start (!i - !start + 1) :: !objs
    | '[' ->
      toks := Arr_start :: !toks;
      if !depth <> 0 then fail "nested array unexpected";
      incr depth
    | ']' ->
      toks := Arr_end :: !toks;
      decr depth
    | _ -> ());
    incr i
  done;
  if !depth <> 0 then Alcotest.fail "chrome json: unbalanced at EOF";
  (match (List.rev !toks, !toks) with
  | Arr_start :: _, Arr_end :: _ -> ()
  | _ -> Alcotest.fail "chrome json: not a top-level array");
  List.rev !objs

let has_key obj key =
  let re = Printf.sprintf "\"%s\":" key in
  let rec find i =
    i + String.length re <= String.length obj
    && (String.sub obj i (String.length re) = re || find (i + 1))
  in
  find 0

let test_chrome_export () =
  let h, rec_, _ = run_traced () in
  let events = Recorder.events rec_ in
  let json =
    Chrome.to_string ~node_of:(Machine.node_of (Dsm.machine h)) events
  in
  let objs = split_objects json in
  Alcotest.(check bool) "objects emitted" true (List.length objs > 0);
  List.iter
    (fun o ->
      List.iter
        (fun k ->
          if not (has_key o k) then
            Alcotest.failf "chrome object missing %S: %s" k o)
        [ "ph"; "ts"; "pid"; "tid" ])
    objs;
  (* at least one duration span (misses happen) and the track metadata *)
  Alcotest.(check bool) "has X duration events" true
    (List.exists (fun o -> has_key o "dur") objs);
  Alcotest.(check bool) "has M metadata events" true
    (List.exists (fun o -> has_key o "args" && has_key o "name") objs)

(* ------------------------------------------------------------------ *)
(* Differential oracle over random programs *)

(* Random short bodies on two SMP nodes of 2-3 processors: loads and
   stores on 2-3 blocks, critical sections on one lock, phases split by
   one barrier (flat or, with [smp_sync], combined per node), and
   compute gaps. Each program runs under run-ahead and under
   always-yield, traced and untraced; per-processor finish cycles,
   stats and the event stream must agree. Every wait the protocol has —
   miss, store-limit, fence, lock grant, barrier, drain — is reached
   with random siblings running or waiting beside it, which is what the
   frozen-peer and self-woken rules must get right. *)
type op = Load of int | Store of int | Compute of int | Critical of op list

type program = {
  per_node : int;
  smp_sync : bool;
  nblocks : int;
  bodies : op list list array;  (* per processor, per phase *)
}

let rec show_op = function
  | Load b -> Printf.sprintf "L%d" b
  | Store b -> Printf.sprintf "S%d" b
  | Compute n -> Printf.sprintf "C%d" n
  | Critical ops -> "[" ^ String.concat " " (List.map show_op ops) ^ "]"

let show_program g =
  Printf.sprintf "2x%d%s, %d blocks:\n%s" g.per_node
    (if g.smp_sync then " smp_sync" else "")
    g.nblocks
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun p phases ->
               Printf.sprintf "  p%d: %s" p
                 (String.concat " | "
                    (List.map
                       (fun ops -> String.concat " " (List.map show_op ops))
                       phases)))
             g.bodies)))

let gen_program =
  let open QCheck.Gen in
  let* per_node = int_range 2 3 in
  let* smp_sync = bool in
  let* nblocks = int_range 2 3 in
  let* nphases = int_range 1 3 in
  let access =
    frequency
      [
        (3, map (fun b -> Load b) (int_bound (nblocks - 1)));
        (3, map (fun b -> Store b) (int_bound (nblocks - 1)));
        (2, map (fun n -> Compute n) (oneofl [ 1; 50; 400; 3000 ]));
      ]
  in
  let op =
    frequency
      [
        (6, access);
        (1, map (fun ops -> Critical ops) (list_size (int_range 0 3) access));
      ]
  in
  let+ bodies =
    array_repeat (2 * per_node)
      (list_repeat nphases (list_size (int_range 0 5) op))
  in
  { per_node; smp_sync; nblocks; bodies }

let run_program ~run_ahead ~traced g =
  let nprocs = 2 * g.per_node in
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs ~procs_per_node:g.per_node
      ~clustering:g.per_node ~smp_sync:g.smp_sync ~heap_bytes:(1 lsl 16) ()
  in
  let h = Dsm.create cfg in
  let blocks = Array.init g.nblocks (fun _ -> Dsm.alloc h ~block_size:64 64) in
  let lk = Dsm.alloc_lock h in
  let bar = Dsm.alloc_barrier h in
  let rec_ = if traced then Some (Recorder.attach (Dsm.machine h)) else None in
  Dsm.run ~run_ahead h (fun ctx ->
      let p = Dsm.pid ctx in
      let stamp = ref 0 in
      let rec exec = function
        | Load b -> ignore (Dsm.load_float ctx blocks.(b))
        | Store b ->
          incr stamp;
          Dsm.store_float ctx blocks.(b) (float_of_int ((100 * p) + !stamp))
        | Compute n -> Dsm.compute ctx n
        | Critical ops ->
          Dsm.lock ctx lk;
          List.iter exec ops;
          Dsm.unlock ctx lk
      in
      List.iteri
        (fun i ops ->
          if i > 0 then Dsm.barrier ctx bar;
          List.iter exec ops)
        g.bodies.(p));
  let procs =
    Array.to_list
      (Array.map
         (fun ps -> (ps.Machine.app_finish_cycles, ps.Machine.stats))
         (Dsm.machine h).Machine.procs)
  in
  (procs, Option.map Recorder.events rec_)

let prop_schedulers_agree =
  QCheck.Test.make ~name:"run-ahead = always-yield on random programs"
    ~count:1000
    (QCheck.make ~print:show_program gen_program)
    (fun g ->
      List.for_all
        (fun traced ->
          run_program ~run_ahead:true ~traced g
          = run_program ~run_ahead:false ~traced g)
        [ false; true ])

let () =
  match Sys.getenv_opt "SHASTA_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) (lines ~run_ahead:false ());
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None ->
    Alcotest.run "trace"
      [
        ( "oracle",
          [
            Alcotest.test_case "repeat identical" `Quick test_repeat_identical;
            Alcotest.test_case "snapshot" `Quick test_matches_snapshot;
            Alcotest.test_case "scheduler event-identity" `Quick
              test_scheduler_invariant;
            Alcotest.test_case "zero added cycles" `Quick test_zero_added_cycles;
          ] );
        ( "recorder",
          [
            Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
            Alcotest.test_case "filters" `Quick test_filters;
          ] );
        ( "metrics",
          [ Alcotest.test_case "sanity" `Quick test_metrics_sanity ] );
        ( "events",
          [
            Alcotest.test_case "classes listed" `Quick test_classes_listed;
            Alcotest.test_case "every class occurs" `Quick test_every_class;
          ] );
        ( "chrome",
          [ Alcotest.test_case "export schema" `Quick test_chrome_export ] );
        ("differential", [ QCheck_alcotest.to_alcotest prop_schedulers_agree ]);
      ]
