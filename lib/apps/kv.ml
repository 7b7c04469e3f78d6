module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Prng = Shasta_util.Prng

type t = {
  base : int;
  stride : int;  (** bytes per bucket: 8 * (1 + 2*bcap) *)
  nbuckets : int;
  bcap : int;
  records : int;
  slots : int array;  (** key -> slot within its bucket, -1 if absent *)
  locks : int array;
  appended : int array;  (** successful runtime inserts per bucket *)
  preload : int array;  (** preload occupancy per bucket *)
  get_k : Dsm.Prog.t array;  (** slot -> probe+get kernel *)
  put_k : Dsm.Prog.t array;
  rmw_k : Dsm.Prog.t array;
}

(* SplitMix64-style finalizer: spreads sequential keys across buckets so
   occupancy stays near-multinomial whatever the key distribution. *)
let mix k =
  let open Int64 in
  let z = of_int k in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  Stdlib.(to_int z land max_int)

let bucket_idx nbuckets k = mix k mod nbuckets

type plan = { nbuckets : int; bcap : int; bytes : int }

let occupancy ~nbuckets ~records =
  let occ = Array.make nbuckets 0 in
  for k = 0 to records - 1 do
    let b = bucket_idx nbuckets k in
    occ.(b) <- occ.(b) + 1
  done;
  occ

let plan ?(slack = 2) ~nbuckets ~records () =
  if nbuckets < 1 then invalid_arg "Kv.plan: nbuckets";
  if records < 1 then invalid_arg "Kv.plan: records";
  let occ = occupancy ~nbuckets ~records in
  let bcap = Array.fold_left max 0 occ + slack in
  { nbuckets; bcap; bytes = nbuckets * 8 * (1 + (2 * bcap)) }

let records (t : t) = t.records
let nbuckets (t : t) = t.nbuckets
let bcap (t : t) = t.bcap
let bucket_of (t : t) k = bucket_idx t.nbuckets k
let slot_of t k = t.slots.(k)
let appended t = t.appended
let preloaded t = t.preload

let bucket_addr t b = t.base + (b * t.stride)
let count_off = 0
let key_off s = 8 * (1 + (2 * s))
let val_off s = 8 * (2 + (2 * s))
let count_addr t b = bucket_addr t b + count_off
let key_addr t b s = bucket_addr t b + key_off s
let val_addr t b s = bucket_addr t b + val_off s

(* Kernels for a key at slot [slot], [base0] = the bucket: the exact
   access sequence of [probe_in] when it finds the key (count cell, then
   keys 0..slot), then the value cell. *)
let probe_to ctx base slot =
  ignore (Dsm.load_float ctx (base + count_off) : float);
  for j = 0 to slot do
    ignore (Dsm.load_float ctx (base + key_off j) : float)
  done

let get_kernel slot : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  probe_to ctx base0 slot;
  aux.(1) <- Dsm.load_float ctx (base0 + val_off slot)

let put_kernel slot : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  probe_to ctx base0 slot;
  Dsm.store_float ctx (base0 + val_off slot) aux.(0)

let rmw_kernel slot : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  probe_to ctx base0 slot;
  let v = Dsm.load_float ctx (base0 + val_off slot) in
  Dsm.store_float ctx (base0 + val_off slot) (v +. aux.(0))

let create h ?block_size ?(slack = 2) ~nbuckets ~records ~extra_keys ~value0 ()
    =
  let { nbuckets; bcap; bytes } = plan ~slack ~nbuckets ~records () in
  let base = Dsm.alloc h ?block_size bytes in
  let locks = Array.init nbuckets (fun _ -> Dsm.alloc_lock h) in
  let slots = Array.make (records + extra_keys) (-1) in
  let occ = Array.make nbuckets 0 in
  let t =
    {
      base;
      stride = 8 * (1 + (2 * bcap));
      nbuckets;
      bcap;
      records;
      slots;
      locks;
      appended = Array.make nbuckets 0;
      preload = occ;
      get_k = Array.init bcap get_kernel;
      put_k = Array.init bcap put_kernel;
      rmw_k = Array.init bcap rmw_kernel;
    }
  in
  for k = 0 to records - 1 do
    let b = bucket_idx nbuckets k in
    let s = occ.(b) in
    occ.(b) <- s + 1;
    slots.(k) <- s;
    Dsm.poke_float h (key_addr t b s) (float_of_int k);
    Dsm.poke_float h (val_addr t b s) (value0 k)
  done;
  for b = 0 to nbuckets - 1 do
    Dsm.poke_float h (count_addr t b) (float_of_int occ.(b))
  done;
  t

let hash_cost = 8
let charge_hash _t ctx = Dsm.compute ctx hash_cost
let lock t ctx b = Dsm.lock ctx t.locks.(b)
let unlock t ctx b = Dsm.unlock ctx t.locks.(b)

let probe_in t ctx k =
  let b = bucket_of t k in
  let n = int_of_float (Dsm.load_float ctx (count_addr t b)) in
  let fk = float_of_int k in
  let rec probe s =
    if s >= n then `Absent n
    else if Dsm.load_float ctx (key_addr t b s) = fk then `Found s
    else probe (s + 1)
  in
  probe 0

let read_slot t ctx ~bucket ~slot = Dsm.load_float ctx (val_addr t bucket slot)

let write_slot t ctx ~bucket ~slot v =
  Dsm.store_float ctx (val_addr t bucket slot) v

let append_in t ctx ~key v =
  let b = bucket_of t key in
  match probe_in t ctx key with
  | `Found _ -> invalid_arg "Kv.append_in: key already present"
  | `Absent n ->
    if n >= t.bcap then None
    else begin
      Dsm.store_float ctx (key_addr t b n) (float_of_int key);
      Dsm.store_float ctx (val_addr t b n) v;
      Dsm.store_float ctx (count_addr t b) (float_of_int (n + 1));
      (* Host index updates are ordered across processors by the bucket
         lock the caller holds. *)
      t.slots.(key) <- n;
      t.appended.(b) <- t.appended.(b) + 1;
      Some n
    end

let progs_get t = t.get_k
let progs_put t = t.put_k
let progs_rmw t = t.rmw_k

let run_prog t ctx p ~bucket ~aux =
  Dsm.Prog.run ctx p ~s:0.0 ~aux ~base0:(bucket_addr t bucket) ~base1:0
    ~base2:0

let peek_value t h k =
  let s = t.slots.(k) in
  if s < 0 then invalid_arg "Kv.peek_value: key absent";
  Dsm.peek_float h (val_addr t (bucket_of t k) s)

let peek_count t h b = Dsm.peek_float h (count_addr t b)

(* The registered app: a mixed get/put/rmw/scan workload over uniform
   keys, verified against a host shadow copy maintained under the same
   bucket locks (so the shadow sees writes in lock order — the final
   value of every key must match the last write in that order). *)
let instance ?(vg = false) ?(scale = 1.0) () =
  let records = App.scaled scale 2000 in
  let nbuckets = min 256 (max 16 (records / 6)) in
  let rounds = App.scaled scale 250 in
  let p = plan ~nbuckets ~records () in
  let value0 k = float_of_int ((k * 3) + 1) in
  {
    App.name = "kv";
    workload =
      Printf.sprintf
        "%d records in %d buckets (cap %d), %d mixed get/put/rmw/scan \
         ops/proc%s"
        records nbuckets p.bcap rounds
        (if vg then ", 256B bucket blocks" else "");
    heap_bytes = p.bytes + 65536;
    setup =
      (fun h ->
        let t =
          create h
            ?block_size:(if vg then Some 256 else None)
            ~nbuckets ~records ~extra_keys:0 ~value0 ()
        in
        let np = (Dsm.config h).Config.nprocs in
        let shadow = Array.init records value0 in
        let mism = Array.make np 0 in
        let get_check ctx p k =
          charge_hash t ctx;
          let b = bucket_of t k in
          lock t ctx b;
          (match probe_in t ctx k with
          | `Found s ->
            if read_slot t ctx ~bucket:b ~slot:s <> shadow.(k) then
              mism.(p) <- mism.(p) + 1
          | `Absent _ -> mism.(p) <- mism.(p) + 1);
          unlock t ctx b
        in
        let body ctx =
          let p = Dsm.pid ctx in
          let prng = Dsm.prng ctx in
          for i = 1 to rounds do
            let c = Prng.int prng 100 in
            let k = Prng.int prng records in
            if c < 50 then get_check ctx p k
            else if c < 80 then begin
              let v = float_of_int ((p * 1_000_000) + i) in
              charge_hash t ctx;
              let b = bucket_of t k in
              lock t ctx b;
              (match probe_in t ctx k with
              | `Found s ->
                write_slot t ctx ~bucket:b ~slot:s v;
                shadow.(k) <- v
              | `Absent _ -> mism.(p) <- mism.(p) + 1);
              unlock t ctx b
            end
            else if c < 95 then begin
              charge_hash t ctx;
              let b = bucket_of t k in
              lock t ctx b;
              (match probe_in t ctx k with
              | `Found s ->
                let v = read_slot t ctx ~bucket:b ~slot:s +. 1.0 in
                write_slot t ctx ~bucket:b ~slot:s v;
                shadow.(k) <- shadow.(k) +. 1.0
              | `Absent _ -> mism.(p) <- mism.(p) + 1);
              unlock t ctx b
            end
            else begin
              let len = 1 + Prng.int prng 4 in
              for j = 0 to len - 1 do
                get_check ctx p ((k + j) mod records)
              done
            end
          done
        in
        let verify h =
          let bad = Array.fold_left ( + ) 0 mism in
          if bad > 0 then
            App.fail
              ~detail:(Printf.sprintf "%d read-oracle mismatches" bad)
          else begin
            let stale = ref 0 in
            for k = 0 to records - 1 do
              if peek_value t h k <> shadow.(k) then incr stale
            done;
            let badc = ref 0 in
            for b = 0 to nbuckets - 1 do
              if peek_count t h b <> float_of_int t.preload.(b) then
                incr badc
            done;
            if !stale > 0 || !badc > 0 then
              App.fail
                ~detail:
                  (Printf.sprintf "%d stale values, %d bad bucket counts"
                     !stale !badc)
            else
              App.pass
                ~detail:
                  (Printf.sprintf "%d keys match the lock-order shadow"
                     records)
          end
        in
        (body, verify));
  }
