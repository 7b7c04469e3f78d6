(* The four benchmark workloads. Each pass drives the simulator only
   through its public functions; the traced variant of a pass wraps those
   calls in spans and folds every Dsm handle it can see into a ledger of
   layer counters. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module Machine = Shasta_core.Machine
module Observer = Shasta_core.Observer
module App = Shasta_apps.App
module Registry = Shasta_apps.Registry
module Kv = Shasta_apps.Kv
module Runner = Shasta_experiments.Runner
module Ycsb = Shasta_workload.Ycsb
module Sampler = Shasta_workload.Sampler
module Litmus = Shasta_check.Litmus
module Reach = Shasta_verify.Reach
module Histogram = Shasta_util.Histogram
module Prng = Shasta_util.Prng

(* ------------------------------------------------------------------ *)
(* Layer counters summed over the simulations of a traced pass. *)

type ledger = {
  mutable stats : Stats.t;
  mutable machines : int;
  mutable performed : int;
  mutable elided : int;
  mutable msgs_remote : int;
  mutable msgs_local : int;  (** intra-node, excluding downgrades *)
  mutable msgs_downgrade : int;
  mutable bytes_remote : int;
  mutable parallel_cycles : int;
}

let ledger () =
  {
    stats = Stats.create ();
    machines = 0;
    performed = 0;
    elided = 0;
    msgs_remote = 0;
    msgs_local = 0;
    msgs_downgrade = 0;
    bytes_remote = 0;
    parallel_cycles = 0;
  }

let absorb l h =
  l.stats <- Stats.aggregate [ l.stats; Dsm.aggregate_stats h ];
  l.machines <- l.machines + 1;
  let p, e = Dsm.sched_counts h in
  l.performed <- l.performed + p;
  l.elided <- l.elided + e;
  let dg = Dsm.downgrade_messages h in
  l.msgs_remote <- l.msgs_remote + Dsm.messages_remote h;
  l.msgs_local <- l.msgs_local + Dsm.messages_local h - dg;
  l.msgs_downgrade <- l.msgs_downgrade + dg;
  l.bytes_remote <-
    l.bytes_remote + Shasta_net.Network.bytes_remote (Dsm.machine h).Machine.net;
  l.parallel_cycles <- l.parallel_cycles + Dsm.parallel_cycles h

(* ------------------------------------------------------------------ *)

type pass = {
  digest : (string * int) list;
      (** virtual-time quantities and explored-state counts, in a fixed
          order; identical on every pass of the same inputs *)
  ops : int;
  failed : int;
  work : float;  (** throughput numerator *)
  problems : string list;
}

type tracer = { spans : Spans.t; ledger : ledger }

type t = {
  name : string;
  work_unit : string;
  seeded : bool;  (** inputs depend on --seed *)
  setup : seed:int -> unit;
      (** lazy library set-up plus one warm-up op, before timed passes *)
  pass : seed:int -> tracer option -> tick:(unit -> unit) -> pass;
      (** [tick] is called between the segments of a long pass, where the
          caller takes a calibration sample *)
  run_s : Spans.t -> float;
      (** host seconds a traced pass spent executing simulations *)
}

let span (tr : tracer option) name f =
  Spans.with_span (Option.map (fun t -> t.spans) tr) name f

let next_run (tr : tracer option) =
  Option.iter (fun t -> Spans.next_run t.spans) tr

let b2i b = if b then 1 else 0

(* ------------------------------------------------------------------ *)
(* splash: the quick-fig3 run list. Each run is executed the way
   Runner.execute does it, minus its memo cache (a second pass must
   simulate again) and with one scheduler shard. *)

let splash_specs ~smoke =
  if smoke then Shasta_experiments.Exp_speedup.specs ~procs:[ 4 ] ~scale:0.1 ()
  else Shasta_experiments.Exp_speedup.specs ~scale:0.5 ()

let spec_label (s : Runner.spec) =
  if not s.checks then s.app ^ ".seq"
  else
    match s.variant with
    | Config.Base -> Printf.sprintf "%s.base-%d" s.app s.nprocs
    | Config.Smp -> Printf.sprintf "%s.smp-%dx%d" s.app s.nprocs s.clustering

let run_digest prefix h =
  let st = Dsm.aggregate_stats h in
  let dg = Dsm.downgrade_messages h in
  let misses =
    List.concat_map
      (fun (kind, kn) ->
        List.map
          (fun (three_hop, hn) ->
            ( Printf.sprintf "misses.%s.%s" kn hn,
              Stats.miss_count st { Stats.kind; three_hop } ))
          [ (false, "2hop"); (true, "3hop") ])
      [
        (Shasta_core.Msg.Read, "read");
        (Shasta_core.Msg.Readex, "readex");
        (Shasta_core.Msg.Upgrade, "upgrade");
      ]
  in
  (("parallel_cycles", Dsm.parallel_cycles h)
   :: List.map
        (fun c -> (Stats.category_name c ^ "_cycles", Stats.cycles st c))
        Stats.categories
  @ misses
  @ [
      ("private_upgrades", st.Stats.private_upgrades);
      ("false_misses", st.Stats.false_misses);
      ("downgrades_sent", st.Stats.downgrades_sent);
      ("msgs_remote", Dsm.messages_remote h);
      ("msgs_local", Dsm.messages_local h - dg);
      ("msgs_downgrade", dg);
      ("accesses", st.Stats.accesses);
      ("checks", st.Stats.checks);
    ])
  |> List.map (fun (k, v) -> (prefix ^ "." ^ k, v))

let run_spec tr (s : Runner.spec) =
  let inst =
    span tr "app.make" (fun () -> (Registry.find s.app) ~vg:s.vg ~scale:s.scale ())
  in
  let heap = (max (1 lsl 22) inst.App.heap_bytes + 4095) / 4096 * 4096 in
  let cfg =
    Config.create ~variant:s.variant ~nprocs:s.nprocs ~clustering:s.clustering
      ~checks_enabled:s.checks ~heap_bytes:heap ~smp_sync:s.smp_sync
      ~share_directory:s.share_directory ~shards:1 ()
  in
  let h = span tr "machine.create" (fun () -> Dsm.create cfg) in
  let body, verify = span tr "app.setup" (fun () -> inst.App.setup h) in
  span tr "dsm.run" (fun () -> Dsm.run h body);
  let verdict = span tr "app.verify" (fun () -> verify h) in
  Option.iter (fun t -> absorb t.ledger h) tr;
  (h, verdict)

let splash ~smoke =
  let specs = splash_specs ~smoke in
  let pass ~seed:_ tr ~tick =
    let failed = ref 0 and work = ref 0 and cycles = ref 0 and problems = ref [] in
    let prev_app = ref (List.hd specs).Runner.app in
    let digest =
      List.concat_map
        (fun s ->
          (* One segment per app: about a second of runs. *)
          if s.Runner.app <> !prev_app then begin
            tick ();
            prev_app := s.Runner.app
          end;
          next_run tr;
          let label = spec_label s in
          match span tr ("app." ^ s.Runner.app) (fun () -> run_spec tr s) with
          | h, verdict ->
            if not verdict.App.ok then begin
              incr failed;
              problems := (label ^ ": " ^ verdict.App.detail) :: !problems
            end;
            work := !work + (Dsm.aggregate_stats h).Stats.accesses;
            cycles := !cycles + Dsm.parallel_cycles h;
            run_digest label h
          | exception e ->
            incr failed;
            problems := (label ^ ": " ^ Printexc.to_string e) :: !problems;
            [])
        specs
    in
    {
      (* Summed over the quick-fig3 list this is the ROADMAP fixed point,
         1042130344 cycles. *)
      digest = digest @ [ ("total.parallel_cycles", !cycles) ];
      ops = List.length specs;
      failed = !failed;
      work = float_of_int !work;
      problems = List.rev !problems;
    }
  in
  {
    name = "splash";
    work_unit = "accesses";
    seeded = false;
    setup =
      (fun ~seed:_ ->
        (* Registry.find statically verifies every kernel program on its
           first call; the first run also grows the heap. *)
        ignore (run_spec None (List.hd specs)));
    pass;
    run_s = (fun sp -> Spans.total sp "dsm.run");
  }

(* ------------------------------------------------------------------ *)
(* kv-update / kv-read: YCSB over the DSM hash table. *)

let kv_spec ~smoke ~mix ~seed =
  let records, ops =
    match (smoke, mix) with
    | true, Ycsb.A -> (1_000, 2_000)
    | true, _ -> (1_000, 4_000)
    | false, Ycsb.A -> (12_000, 24_000)
    | false, _ -> (12_000, 72_000)
  in
  Ycsb.spec ~mix ~records ~ops ~seed ~progs:true ~shards:1 ()

let kv_classes = [ Ycsb.Read; Ycsb.Update; Ycsb.Other ]

let kv_digest ~parallel_cycles ~remote ~local ~downgrade ~nbuckets ~bcap classes =
  [
    ("kv.parallel_cycles", parallel_cycles);
    ("kv.msgs_remote", remote);
    ("kv.msgs_local", local);
    ("kv.msgs_downgrade", downgrade);
    ("kv.nbuckets", nbuckets);
    ("kv.bcap", bcap);
  ]
  @ List.concat_map
      (fun (cls, count, lat, msgs) ->
        let n = "kv." ^ Ycsb.class_name cls in
        [
          (n ^ ".ops", count);
          (n ^ ".p50", Histogram.percentile lat 0.5);
          (n ^ ".p99", Histogram.percentile lat 0.99);
          (n ^ ".p999", Histogram.percentile lat 0.999);
          (n ^ ".msgs", msgs);
        ])
      classes

let ycsb_digest (r : Ycsb.result) =
  kv_digest ~parallel_cycles:r.parallel_cycles ~remote:r.remote_msgs
    ~local:r.local_msgs ~downgrade:r.downgrade_msgs ~nbuckets:r.nbuckets
    ~bcap:r.bcap
    (List.map (fun c -> Ycsb.(c.cls, c.count, c.latency, c.msgs)) r.classes)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Ycsb.run builds its machine internally, so its handle - and with it
   every layer counter - is out of reach. The traced pass therefore
   replays the same spec through the public Kv primitives on a handle
   the benchmark owns: the compiled read/update path that mixes A and C
   take. Its digest must equal the timed passes' Ycsb.run digest, which
   proves the replay simulated the same program. *)
let kv_replay tr (spec : Ycsb.spec) =
  let records = spec.records and np = spec.nprocs in
  let read_frac =
    match spec.mix with
    | Ycsb.A -> 0.5
    | Ycsb.C -> 1.0
    | _ -> invalid_arg "kv_replay: mixes A and C only"
  in
  let nbuckets = next_pow2 (max 16 (records / 6)) 16 in
  let plan = Kv.plan ~nbuckets ~records () in
  let heap = max (1 lsl 22) ((plan.Kv.bytes + (1 lsl 16) + 4095) / 4096 * 4096) in
  let cfg =
    Config.create ~variant:spec.variant ~nprocs:np ~clustering:spec.clustering
      ~heap_bytes:heap ~seed:spec.seed ~shards:1 ()
  in
  let h = span tr "machine.create" (fun () -> Dsm.create cfg) in
  let value0 k = float_of_int ((k * 7) + 3) in
  let t =
    span tr "app.setup" (fun () ->
        Kv.create h ~nbuckets ~records ~extra_keys:0 ~value0 ())
  in
  let shadow = Array.init records value0 in
  (* Class index: 0 read, 1 update, 2 outside any op. *)
  let cur = Array.make np 2 in
  let msgs = Array.init np (fun _ -> Array.make 3 0) in
  let lat = Array.init np (fun _ -> Array.init 3 (fun _ -> Histogram.create ())) in
  let counts = Array.init np (fun _ -> Array.make 3 0) in
  let misreads = ref 0 in
  Dsm.add_observer h
    {
      Observer.nil with
      on_send =
        (fun ~src ~dst:_ ~now:_ _ ->
          let m = msgs.(src) in
          m.(cur.(src)) <- m.(cur.(src)) + 1);
    };
  let body ctx =
    let p = Dsm.pid ctx in
    let ops_p = (spec.ops / np) + if p < spec.ops mod np then 1 else 0 in
    let keys =
      Sampler.make spec.dist ~seed:(spec.seed + (p * 1_000_003) + 1) ~n:records
        ~theta:spec.theta
    in
    let sel = Prng.create (spec.seed + (p * 1_000_003) + 2) in
    let aux = [| 0.0; 0.0 |] in
    let gp = Kv.progs_get t and pp = Kv.progs_put t in
    let wseq = ref 0 in
    for _ = 1 to ops_p do
      let cls = if Prng.float sel 1.0 < read_frac then 0 else 1 in
      cur.(p) <- cls;
      let k = Sampler.next keys in
      let t0 = Dsm.now ctx in
      Kv.charge_hash t ctx;
      let b = Kv.bucket_of t k and s = Kv.slot_of t k in
      if cls = 0 then begin
        Kv.lock t ctx b;
        Kv.run_prog t ctx gp.(s) ~bucket:b ~aux;
        if aux.(1) <> shadow.(k) then incr misreads;
        Kv.unlock t ctx b
      end
      else begin
        incr wseq;
        aux.(0) <- float_of_int ((p lsl 36) lor !wseq);
        Kv.lock t ctx b;
        Kv.run_prog t ctx pp.(s) ~bucket:b ~aux;
        shadow.(k) <- aux.(0);
        Kv.unlock t ctx b
      end;
      Histogram.add lat.(p).(cls) (Dsm.now ctx - t0);
      counts.(p).(cls) <- counts.(p).(cls) + 1
    done;
    cur.(p) <- 2
  in
  span tr "dsm.run" (fun () -> Dsm.run h body);
  let ok =
    span tr "app.verify" (fun () ->
        let pre = Kv.preloaded t in
        !misreads = 0
        && List.for_all
             (fun k -> Kv.peek_value t h k = shadow.(k))
             (List.init records Fun.id)
        && List.for_all
             (fun b -> Kv.peek_count t h b = float_of_int pre.(b))
             (List.init (Kv.nbuckets t) Fun.id))
  in
  Option.iter (fun t -> absorb t.ledger h) tr;
  let classes =
    List.filter_map
      (fun (i, cls) ->
        let sum a = Array.fold_left (fun acc per -> acc + per.(i)) 0 a in
        let count = sum counts and m = sum msgs in
        if count = 0 && m = 0 then None
        else
          Some
            ( cls,
              count,
              Array.fold_left
                (fun acc per -> Histogram.merge acc per.(i))
                (Histogram.create ()) lat,
              m ))
      (List.mapi (fun i c -> (i, c)) kv_classes)
  in
  let dg = Dsm.downgrade_messages h in
  ( ok,
    kv_digest ~parallel_cycles:(Dsm.parallel_cycles h)
      ~remote:(Dsm.messages_remote h) ~local:(Dsm.messages_local h - dg)
      ~downgrade:dg ~nbuckets ~bcap:(Kv.bcap t) classes )

let kv ~smoke ~name ~mix =
  let pass ~seed tr ~tick:_ =
    let spec = kv_spec ~smoke ~mix ~seed in
    let ok, digest =
      match tr with
      | None ->
        let r = Ycsb.run spec in
        (r.Ycsb.oracle_ok, ycsb_digest r)
      | Some _ -> span tr "kv.replay" (fun () -> kv_replay tr spec)
    in
    {
      digest;
      ops = spec.ops;
      failed = (if ok then 0 else spec.ops);
      work = float_of_int spec.ops;
      problems = (if ok then [] else [ "shadow oracle failed" ]);
    }
  in
  {
    name;
    work_unit = "ops";
    seeded = true;
    setup =
      (fun ~seed ->
        (* The first zipfian sampler over [records] keys memoizes its
           zeta normalizer. *)
        let spec = kv_spec ~smoke ~mix ~seed in
        ignore (Ycsb.run { spec with ops = max 1 (spec.ops / 16) }));
    pass;
    run_s = (fun sp -> Spans.total sp "dsm.run");
  }

(* ------------------------------------------------------------------ *)
(* verify: the litmus model checker plus protocol-model reachability. *)

(* Litmus builds one machine per explored schedule through the
   scenario's [make]; wrapping [make] lets the traced pass time machine
   construction and read each finished handle's counters (a handle is
   folded in when the next one is made, and once more after [check]). *)
let observed tr sc =
  match tr with
  | None -> (sc, ignore)
  | Some t ->
    let pending = ref None in
    let flush () =
      Option.iter (absorb t.ledger) !pending;
      pending := None
    in
    let make ~fault =
      flush ();
      Spans.next_run t.spans;
      let inst = span tr "machine.create" (fun () -> sc.Litmus.make ~fault) in
      pending := Some inst.Litmus.handle;
      inst
    in
    ({ sc with Litmus.make }, flush)

let verify ~smoke =
  (* Budget 2 explores 16k schedules (about 25 s); budget 1 keeps a pass
     near half a second while still building hundreds of machines. *)
  let budget = if smoke then 0 else 1 in
  let pass ~seed:_ tr ~tick:_ =
    let reports =
      List.map
        (fun sc ->
          let sc', flush = observed tr sc in
          let r =
            span tr ("litmus." ^ sc.Litmus.name) (fun () ->
                Litmus.check ~budget sc')
          in
          flush ();
          r)
        Litmus.scenarios
    in
    let reach = span tr "reach.explore" (fun () -> Reach.explore Reach.default_params) in
    let reach_bad = reach.Reach.r_violations <> [] || reach.Reach.r_capped in
    let runs = List.fold_left (fun a r -> a + r.Litmus.runs) 0 reports in
    let failed =
      List.fold_left
        (fun a r -> a + List.length r.Litmus.failures + b2i r.Litmus.capped)
        (b2i reach_bad) reports
    in
    {
      digest =
        List.concat_map
          (fun r ->
            let n = "litmus." ^ r.Litmus.scenario in
            [
              (n ^ ".runs", r.Litmus.runs);
              (n ^ ".decision_points", r.Litmus.decision_points);
              (n ^ ".capped", b2i r.Litmus.capped);
              (n ^ ".failures", List.length r.Litmus.failures);
            ])
          reports
        @ [
            ("reach.states", reach.Reach.r_states);
            ("reach.edges", reach.Reach.r_edges);
            ("reach.violations", List.length reach.Reach.r_violations);
            ("reach.capped", b2i reach.Reach.r_capped);
          ];
      ops = runs + 1;
      failed;
      work = float_of_int runs;
      problems =
        List.concat_map
          (fun r ->
            List.map
              (fun (f : Litmus.failure) -> r.Litmus.scenario ^ ": " ^ f.what)
              r.Litmus.failures)
          reports
        @ if reach_bad then [ "reach: violations or capped" ] else [];
    }
  in
  {
    name = "verify";
    work_unit = "schedules";
    seeded = false;
    setup =
      (fun ~seed:_ ->
        List.iter (fun sc -> ignore (Litmus.check ~budget:0 sc)) Litmus.scenarios);
    pass;
    run_s =
      (fun sp ->
        (* Replays run inside Litmus.check: its time minus the machine
           construction the wrapped [make] measured. *)
        List.fold_left
          (fun a sc -> a +. Spans.total sp ("litmus." ^ sc.Litmus.name))
          0.0 Litmus.scenarios
        -. Spans.total sp "machine.create");
  }

let all ~smoke =
  [
    splash ~smoke;
    kv ~smoke ~name:"kv-update" ~mix:Ycsb.A;
    kv ~smoke ~name:"kv-read" ~mix:Ycsb.C;
    verify ~smoke;
  ]
