module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Observer = Shasta_core.Observer
module Prng = Shasta_util.Prng
module Histogram = Shasta_util.Histogram
module Text_table = Shasta_util.Text_table
module Kv = Shasta_apps.Kv

type mix = A | B | C | D | E | F

let mix_of_string = function
  | "a" | "A" -> Some A
  | "b" | "B" -> Some B
  | "c" | "C" -> Some C
  | "d" | "D" -> Some D
  | "e" | "E" -> Some E
  | "f" | "F" -> Some F
  | _ -> None

let mix_to_string = function
  | A -> "a"
  | B -> "b"
  | C -> "c"
  | D -> "d"
  | E -> "e"
  | F -> "f"

(* Operation fractions (read, update, rmw, insert, scan) — the standard
   YCSB core-workload mixes. *)
let mix_fracs = function
  | A -> (0.5, 0.5, 0.0, 0.0, 0.0)
  | B -> (0.95, 0.05, 0.0, 0.0, 0.0)
  | C -> (1.0, 0.0, 0.0, 0.0, 0.0)
  | D -> (0.95, 0.0, 0.0, 0.05, 0.0)
  | E -> (0.0, 0.0, 0.0, 0.05, 0.95)
  | F -> (0.5, 0.0, 0.5, 0.0, 0.0)

let mix_describe = function
  | A -> "50% read / 50% update"
  | B -> "95% read / 5% update"
  | C -> "100% read"
  | D -> "95% read (latest) / 5% insert"
  | E -> "95% scan / 5% insert"
  | F -> "50% read / 50% read-modify-write"

let mix_has_inserts m =
  let _, _, _, i, _ = mix_fracs m in
  i > 0.0

type op_class = Read | Update | Rmw | Insert | Scan | Other

let class_name = function
  | Read -> "read"
  | Update -> "update"
  | Rmw -> "rmw"
  | Insert -> "insert"
  | Scan -> "scan"
  | Other -> "other"

let class_order = [ Read; Update; Rmw; Insert; Scan; Other ]
let nclasses = 6

let ci = function
  | Read -> 0
  | Update -> 1
  | Rmw -> 2
  | Insert -> 3
  | Scan -> 4
  | Other -> 5

type spec = {
  mix : mix;
  records : int;
  ops : int;
  dist : Sampler.dist;
  theta : float;
  scan_max : int;
  variant : Config.variant;
  nprocs : int;
  clustering : int;
  seed : int;
  progs : bool;
}

let spec ?(mix = A) ?(records = 10_000) ?(ops = 40_000)
    ?(dist = Sampler.Zipfian) ?(theta = 0.99) ?(scan_max = 16)
    ?(variant = Config.Smp) ?(nprocs = 16) ?(clustering = 4) ?(seed = 42)
    ?(progs = true) ?(shards = 1) () =
  if shards <> 1 then invalid_arg "Ycsb.spec: shards must be 1";
  {
    mix;
    records;
    ops;
    dist;
    theta;
    scan_max;
    variant;
    nprocs;
    clustering;
    seed;
    progs;
  }

type class_stats = {
  cls : op_class;
  count : int;
  latency : Histogram.t;
  msgs : int;
}

type result = {
  spec : spec;
  nbuckets : int;
  bcap : int;
  compiled : bool;
  parallel_cycles : int;
  remote_msgs : int;
  local_msgs : int;
  downgrade_msgs : int;
  dropped_inserts : int;
  classes : class_stats list;
  oracle_ok : bool;
  oracle : string;
}

(* The per-op-class aggregate over [results], merged in list order. *)
let totals = function
  | [] -> None
  | results ->
    let classes = List.concat_map (fun r -> r.classes) results in
    let of_cls cls = List.filter (fun c -> c.cls = cls) classes in
    let sum f cs = List.fold_left (fun a c -> a + f c) 0 cs in
    let agg cls =
      let cs = of_cls cls in
      let ops = sum (fun c -> c.count) cs and msgs = sum (fun c -> c.msgs) cs in
      if cls = Other || (ops = 0 && msgs = 0) then None
      else
        Some
          ( cls,
            ops,
            List.fold_left
              (fun h c -> Histogram.merge h c.latency)
              (Histogram.create ()) cs,
            msgs )
    in
    Some
      ( List.length results,
        List.filter_map agg class_order,
        sum (fun c -> c.msgs) (of_cls Other) )

let totals_json results =
  match totals results with
  | None -> None
  | Some (runs, classes, unattributed) ->
    let cls_json (cls, ops, lat, msgs) =
      Printf.sprintf
        "\"%s\": { \"ops\": %d, \"p50\": %d, \"p99\": %d, \"p999\": %d, \
         \"msgs_per_op\": %.3f }"
        (class_name cls) ops
        (Histogram.percentile lat 0.5)
        (Histogram.percentile lat 0.99)
        (Histogram.percentile lat 0.999)
        (float_of_int msgs /. float_of_int (max 1 ops))
    in
    Some
      (Printf.sprintf
         "{ \"runs\": %d, \"classes\": { %s }, \"unattributed_msgs\": %d }"
         runs
         (String.concat ", " (List.map cls_json classes))
         unattributed)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let dist_describe spec =
  match spec.dist with
  | Sampler.Uniform -> "uniform"
  | Sampler.Zipfian -> Printf.sprintf "zipfian(%.2f)" spec.theta
  | Sampler.Scrambled -> Printf.sprintf "scrambled-zipfian(%.2f)" spec.theta

let value0 k = float_of_int ((k * 7) + 3)
let key_seed spec p = spec.seed + (p * 1_000_003) + 1
let sel_seed spec p = spec.seed + (p * 1_000_003) + 2

let run spec =
  if spec.records < 2 then invalid_arg "Ycsb.run: records < 2";
  if spec.ops < 1 then invalid_arg "Ycsb.run: ops < 1";
  if spec.scan_max < 1 then invalid_arg "Ycsb.run: scan_max < 1";
  let records = spec.records in
  let nbuckets = next_pow2 (max 16 (records / 6)) 16 in
  let np = spec.nprocs in
  let ins_cap = (spec.ops / np) + 1 in
  let has_inserts = mix_has_inserts spec.mix in
  let extra_keys = if has_inserts then ins_cap * np else 0 in
  (* Room for the expected per-bucket share of runtime inserts plus
     dispersion; overflow beyond the slack is dropped, deterministically
     and non-fatally. *)
  let slack =
    if has_inserts then 4 + (2 * ((spec.ops / 20 / nbuckets) + 1)) else 2
  in
  let plan = Kv.plan ~slack ~nbuckets ~records () in
  let heap = plan.Kv.bytes + (1 lsl 16) in
  let heap = max (1 lsl 22) ((heap + 4095) / 4096 * 4096) in
  let cfg =
    Config.create ~variant:spec.variant ~nprocs:np
      ~clustering:spec.clustering ~heap_bytes:heap ~seed:spec.seed
      ()
  in
  let h = Dsm.create cfg in
  let san =
    if cfg.Config.sanitize > 0 then
      Some (Shasta_check.Sanitizer.attach (Dsm.machine h))
    else None
  in
  let rd =
    if cfg.Config.sanitize > 1 then
      Some (Shasta_check.Races.attach (Dsm.machine h))
    else None
  in
  let t = Kv.create h ~slack ~nbuckets ~records ~extra_keys ~value0 () in
  let compiled = spec.progs && not has_inserts in
  let nkeys = records + extra_keys in
  let shadow =
    Array.init nkeys (fun k -> if k < records then value0 k else 0.0)
  in
  let live = Array.make nkeys false in
  Array.fill live 0 records true;
  (* Per-processor measurement state, merged in pid order after the run.
     [cur.(p)] names the op class processor [p] is currently executing;
     the [on_send] hook fires on the sending processor (its [src] is the
     executing processor), so [cur.(src)] is the class to charge. *)
  let cur = Array.make np (ci Other) in
  let msgs = Array.init np (fun _ -> Array.make nclasses 0) in
  let lat =
    Array.init np (fun _ -> Array.init nclasses (fun _ -> Histogram.create ()))
  in
  let counts = Array.init np (fun _ -> Array.make nclasses 0) in
  let mism = Array.make np 0 in
  let dropped = Array.make np 0 in
  Dsm.add_observer h
    {
      Observer.nil with
      on_send =
        (fun ~src ~dst:_ ~now:_ _ ->
          let m = msgs.(src) in
          let c = cur.(src) in
          m.(c) <- m.(c) + 1);
    };
  let fr, fu, fm, fi, _fs = mix_fracs spec.mix in
  let c1 = fr in
  let c2 = c1 +. fu in
  let c3 = c2 +. fm in
  let c4 = c3 +. fi in
  let body ctx =
    let p = Dsm.pid ctx in
    let nprocs = Dsm.nprocs ctx in
    let ops_p =
      (spec.ops / nprocs) + (if p < spec.ops mod nprocs then 1 else 0)
    in
    let read_key =
      match (spec.mix, spec.dist) with
      | D, (Sampler.Zipfian | Sampler.Scrambled) ->
        (* "latest": the popularity ranking follows recency — map rank r
           to the r-th newest preloaded key. Runtime-inserted keys live
           in per-processor reserved ranges (for determinism), so reads
           target the initial keyspace only. *)
        let s =
          Sampler.zipfian ~seed:(key_seed spec p) ~n:records
            ~theta:spec.theta ()
        in
        fun () -> records - 1 - Sampler.next s
      | _ ->
        let s =
          Sampler.make spec.dist ~seed:(key_seed spec p) ~n:records
            ~theta:spec.theta
        in
        fun () -> Sampler.next s
    in
    let sel = Prng.create (sel_seed spec p) in
    let aux = [| 0.0; 0.0 |] in
    let gp = if compiled then Kv.progs_get t else [||] in
    let pp = if compiled then Kv.progs_put t else [||] in
    let rp = if compiled then Kv.progs_rmw t else [||] in
    let wseq = ref 0 in
    let next_val () =
      incr wseq;
      float_of_int ((p lsl 36) lor !wseq)
    in
    let ins_next = ref 0 in
    let miss () = mism.(p) <- mism.(p) + 1 in
    (* Closure ops; oracle bookkeeping happens inside the bucket's
       critical section, so the shadow sees writes in lock order. *)
    let do_read k =
      Kv.charge_hash t ctx;
      let b = Kv.bucket_of t k in
      if compiled then begin
        let s = Kv.slot_of t k in
        Kv.lock t ctx b;
        Kv.run_prog t ctx gp.(s) ~bucket:b ~aux;
        if aux.(1) <> shadow.(k) then miss ();
        Kv.unlock t ctx b
      end
      else begin
        Kv.lock t ctx b;
        (match Kv.probe_in t ctx k with
        | `Found s ->
          if Kv.read_slot t ctx ~bucket:b ~slot:s <> shadow.(k) then miss ()
        | `Absent _ -> if live.(k) then miss ());
        Kv.unlock t ctx b
      end
    in
    let do_update k v =
      Kv.charge_hash t ctx;
      let b = Kv.bucket_of t k in
      if compiled then begin
        let s = Kv.slot_of t k in
        aux.(0) <- v;
        Kv.lock t ctx b;
        Kv.run_prog t ctx pp.(s) ~bucket:b ~aux;
        shadow.(k) <- v;
        Kv.unlock t ctx b
      end
      else begin
        Kv.lock t ctx b;
        (match Kv.probe_in t ctx k with
        | `Found s ->
          Kv.write_slot t ctx ~bucket:b ~slot:s v;
          shadow.(k) <- v
        | `Absent _ -> miss ());
        Kv.unlock t ctx b
      end
    in
    let do_rmw k =
      Kv.charge_hash t ctx;
      let b = Kv.bucket_of t k in
      if compiled then begin
        let s = Kv.slot_of t k in
        aux.(0) <- 1.0;
        Kv.lock t ctx b;
        Kv.run_prog t ctx rp.(s) ~bucket:b ~aux;
        shadow.(k) <- shadow.(k) +. 1.0;
        Kv.unlock t ctx b
      end
      else begin
        Kv.lock t ctx b;
        (match Kv.probe_in t ctx k with
        | `Found s ->
          let v = Kv.read_slot t ctx ~bucket:b ~slot:s +. 1.0 in
          Kv.write_slot t ctx ~bucket:b ~slot:s v;
          shadow.(k) <- shadow.(k) +. 1.0
        | `Absent _ -> miss ());
        Kv.unlock t ctx b
      end
    in
    let do_insert () =
      let k = records + (p * ins_cap) + !ins_next in
      incr ins_next;
      let v = next_val () in
      Kv.charge_hash t ctx;
      let b = Kv.bucket_of t k in
      Kv.lock t ctx b;
      (match Kv.append_in t ctx ~key:k v with
      | Some _ ->
        shadow.(k) <- v;
        live.(k) <- true
      | None -> dropped.(p) <- dropped.(p) + 1);
      Kv.unlock t ctx b
    in
    let record cls t0 =
      let i = ci cls in
      Histogram.add lat.(p).(i) (Dsm.now ctx - t0);
      counts.(p).(i) <- counts.(p).(i) + 1
    in
    for _ = 1 to ops_p do
      let u = Prng.float sel 1.0 in
      if u < c1 then begin
        cur.(p) <- ci Read;
        let k = read_key () in
        let t0 = Dsm.now ctx in
        do_read k;
        record Read t0
      end
      else if u < c2 then begin
        cur.(p) <- ci Update;
        let k = read_key () in
        let v = next_val () in
        let t0 = Dsm.now ctx in
        do_update k v;
        record Update t0
      end
      else if u < c3 then begin
        cur.(p) <- ci Rmw;
        let k = read_key () in
        let t0 = Dsm.now ctx in
        do_rmw k;
        record Rmw t0
      end
      else if u < c4 then begin
        cur.(p) <- ci Insert;
        let t0 = Dsm.now ctx in
        do_insert ();
        record Insert t0
      end
      else begin
        cur.(p) <- ci Scan;
        let k0 = read_key () in
        let len = 1 + Prng.int sel spec.scan_max in
        let len = min len (records - k0) in
        let t0 = Dsm.now ctx in
        for j = 0 to len - 1 do
          do_read (k0 + j)
        done;
        record Scan t0
      end
    done;
    cur.(p) <- ci Other
  in
  Dsm.run h body;
  (match san with
  | Some san when Shasta_check.Sanitizer.violation_count san > 0 ->
    failwith
      (Printf.sprintf "ycsb run violated protocol invariants (%s)"
         (String.concat "; "
            (List.map Shasta_core.Inspect.describe
               (Shasta_check.Sanitizer.violations san))))
  | _ -> ());
  (match rd with
  | Some rd when Shasta_check.Races.race_count rd > 0 ->
    failwith
      (Printf.sprintf "ycsb run raced (%s)"
         (String.concat "; "
            (List.map Shasta_check.Races.describe (Shasta_check.Races.races rd))))
  | _ -> ());
  (* Per-key sequential-consistency oracle: every key's final value must
     be the last write in bucket-lock order, and bucket occupancies must
     account for every successful insert. *)
  let misreads = Array.fold_left ( + ) 0 mism in
  let stale = ref 0 in
  for k = 0 to nkeys - 1 do
    if live.(k) && Kv.peek_value t h k <> shadow.(k) then incr stale
  done;
  let badc = ref 0 in
  let pre = Kv.preloaded t and app = Kv.appended t in
  for b = 0 to Kv.nbuckets t - 1 do
    if Kv.peek_count t h b <> float_of_int (pre.(b) + app.(b)) then incr badc
  done;
  let oracle_ok = misreads = 0 && !stale = 0 && !badc = 0 in
  let oracle =
    if oracle_ok then
      Printf.sprintf "ok (%d keys match the lock-order shadow)"
        (records + Array.fold_left ( + ) 0 app)
    else
      Printf.sprintf "FAIL (%d read mismatches, %d stale keys, %d bad counts)"
        misreads !stale !badc
  in
  let classes =
    List.filter_map
      (fun cls ->
        let i = ci cls in
        let count = Array.fold_left (fun a c -> a + c.(i)) 0 counts in
        let m = Array.fold_left (fun a c -> a + c.(i)) 0 msgs in
        if count = 0 && m = 0 then None
        else
          Some
            {
              cls;
              count;
              latency =
                Array.fold_left
                  (fun acc per -> Histogram.merge acc per.(i))
                  (Histogram.create ()) lat;
              msgs = m;
            })
      class_order
  in
  let downgrade_msgs = Dsm.downgrade_messages h in
  {
    spec;
    nbuckets;
    bcap = Kv.bcap t;
    compiled;
    parallel_cycles = Dsm.parallel_cycles h;
    remote_msgs = Dsm.messages_remote h;
    local_msgs = Dsm.messages_local h - downgrade_msgs;
    downgrade_msgs;
    dropped_inserts = Array.fold_left ( + ) 0 dropped;
    classes;
    oracle_ok;
    oracle;
  }

let render r =
  let spec = r.spec in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "ycsb-%s (%s): %d records in %d buckets (cap %d), %d ops, %s keys, %s \
     %dp/%d, seed %d%s\n"
    (mix_to_string spec.mix) (mix_describe spec.mix) spec.records r.nbuckets
    r.bcap spec.ops (dist_describe spec)
    (match spec.variant with Config.Base -> "base" | Config.Smp -> "smp")
    spec.nprocs spec.clustering spec.seed
    (if r.compiled then ", access programs" else "");
  let ops, other = List.partition (fun c -> c.cls <> Other) r.classes in
  let rows =
    List.map
      (fun c ->
        [
          class_name c.cls;
          string_of_int c.count;
          string_of_int (Histogram.percentile c.latency 0.5);
          string_of_int (Histogram.percentile c.latency 0.99);
          string_of_int (Histogram.percentile c.latency 0.999);
          Printf.sprintf "%.2f"
            (float_of_int c.msgs /. float_of_int (max 1 c.count));
        ])
      ops
  in
  Buffer.add_string b
    (Text_table.render
       ~header:[ "class"; "ops"; "p50"; "p99"; "p999"; "msgs/op" ]
       rows);
  Buffer.add_char b '\n';
  Printf.bprintf b
    "parallel cycles %d | messages %d remote / %d local / %d downgrade | \
     unattributed_msgs %d | dropped inserts %d | oracle %s\n"
    r.parallel_cycles r.remote_msgs r.local_msgs r.downgrade_msgs
    (List.fold_left (fun a c -> a + c.msgs) 0 other)
    r.dropped_inserts r.oracle;
  Buffer.contents b
