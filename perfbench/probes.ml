(* Warm per-layer probes: each times one layer's unit of work on a
   machine that is already built and warmed up, so construction cost
   (which swamps the Bechamel suite's samples) stays out. A probe
   reports the median over [reps] timed batches of [n] operations. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Engine = Shasta_sim.Engine
module Network = Shasta_net.Network

type probe = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** operations per timed batch *)
}

let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let now = Unix.gettimeofday

(* [batch i] performs the work of timed batch [i] (batch 0 is the
   warm-up, untimed); returns the median host ns per operation, where
   [ops i] is how many operations batch [i] performed. *)
let ns_per_op ~ops batch =
  batch 0;
  median
    (List.init reps (fun i ->
         let t0 = now () in
         batch (i + 1);
         (now () -. t0) *. 1e9 /. float_of_int (ops (i + 1))))

(* Run [f ctx] on processor 0 while the others return at once. *)
let on_proc0 h f =
  let r = ref nan in
  Dsm.run h (fun ctx -> if Dsm.pid ctx = 0 then r := f ctx);
  !r

let smp4 () = Config.create ~variant:Config.Smp ~nprocs:4 ~clustering:4 ~shards:1 ()

(* dsm: the inline check's hit path, one node exclusive over the data. *)
let hit ~n ~observe ~store =
  let h = Dsm.create (smp4 ()) in
  let a = Dsm.alloc_floats h 1024 in
  if observe then Dsm.add_observer h Shasta_core.Observer.nil;
  on_proc0 h (fun ctx ->
      ns_per_op ~ops:(fun _ -> n) (fun _ ->
          if store then
            for i = 0 to n - 1 do
              Dsm.store_float ctx (a + (8 * (i land 1023))) 1.0
            done
          else
            for i = 0 to n - 1 do
              ignore (Dsm.load_float ctx (a + (8 * (i land 1023))))
            done))

(* dsm: the daxpy row kernel as a compiled access program and as
   per-access closures; ns per element (2 loads, 1 store, 6 cycles). *)
let daxpy ~n ~prog =
  let h = Dsm.create (smp4 ()) in
  let len = 64 and s = 2.0 in
  let rows = max 1 (n / len) in
  let dst = Dsm.alloc_floats h ~block_size:512 len in
  let src = Dsm.alloc_floats h ~block_size:512 len in
  on_proc0 h (fun ctx ->
      let p = Dsm.Prog.fms_row ~len ~cost:6 in
      let ranges = [ (dst, len * 8, Dsm.W); (src, len * 8, Dsm.R) ] in
      ns_per_op
        ~ops:(fun _ -> rows * len)
        (fun _ ->
          for _ = 1 to rows do
            Dsm.batch ctx ranges (fun () ->
                if prog then
                  Dsm.Prog.run ctx p ~s ~aux:Dsm.Prog.no_aux ~base0:dst
                    ~base1:src ~base2:0
                else
                  for c = 0 to len - 1 do
                    let v = Dsm.Batch.load_float ctx (src + (8 * c)) in
                    let d = Dsm.Batch.load_float ctx (dst + (8 * c)) in
                    Dsm.Batch.store_float ctx (dst + (8 * c)) (d -. (s *. v));
                    Dsm.compute ctx 6
                  done)
          done))

(* engine: [Engine.run] on two processors with zero lookahead, so every
   advance performs a yield; and on one processor, where every advance
   is elided. ns per yield of the kind measured. *)
let engine ~n ~nprocs =
  let counted = ref 0 in
  ns_per_op
    ~ops:(fun _ -> !counted)
    (fun _ ->
      let o =
        Engine.run ~nprocs (fun p ->
            for _ = 1 to n do
              Engine.advance p 1
            done)
      in
      counted :=
        if nprocs = 1 then o.Engine.yields_elided else o.Engine.yields_performed)

(* net: bursts of 16 sends to one destination, then their 16 polls;
   ns per message. *)
let send_poll ~n =
  let bursts = max 1 (n / 16) in
  let net =
    Network.create
      (Shasta_net.Topology.create ~nprocs:2 ~procs_per_node:1)
      Shasta_net.Link.default
  in
  let clock = ref 0 in
  ns_per_op
    ~ops:(fun _ -> 16 * bursts)
    (fun _ ->
      for _ = 1 to bursts do
        for _ = 1 to 16 do
          Network.send net ~src:0 ~dst:1 ~now:!clock ~size:64 ();
          incr clock
        done;
        for _ = 1 to 16 do
          ignore (Network.poll net ~dst:1 ~now:max_int)
        done
      done)

(* protocol: processor 0 of a 2-node Base machine reads blocks homed on
   processor 1 (2-hop read misses, processor 1 serving them from its
   barrier wait); ns per miss. *)
let read_miss ~n =
  let cfg = Config.create ~variant:Config.Base ~nprocs:2 ~procs_per_node:1 ~shards:1 () in
  let h = Dsm.create cfg in
  let sets = Array.init (reps + 1) (fun _ -> Dsm.alloc h ~home:1 (64 * n)) in
  let b = Dsm.alloc_barrier h in
  let r = ref nan in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then
        r :=
          ns_per_op
            ~ops:(fun _ -> n)
            (fun i ->
              for k = 0 to n - 1 do
                ignore (Dsm.load_float ctx (sets.(i) + (64 * k)))
              done);
      Dsm.barrier ctx b);
  !r

(* protocol: processor 0 reads blocks that three processors of the
   other node hold exclusive with private state, so each read miss makes
   the home node downgrade its siblings; ns per block. *)
let downgrade ~n =
  let cfg = Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ~shards:1 () in
  let h = Dsm.create cfg in
  let sets = Array.init (reps + 1) (fun _ -> Dsm.alloc h ~home:4 (64 * n)) in
  let b = Dsm.alloc_barrier h in
  let r = ref nan in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p >= 4 && p < 7 then
        Array.iter
          (fun base ->
            for k = 0 to n - 1 do
              Dsm.store_float ctx (base + (64 * k) + (8 * (p - 4))) 1.0
            done)
          sets;
      Dsm.barrier ctx b;
      if p = 0 then
        r :=
          ns_per_op
            ~ops:(fun _ -> n)
            (fun i ->
              for k = 0 to n - 1 do
                ignore (Dsm.load_float ctx (sets.(i) + (64 * k)))
              done);
      Dsm.barrier ctx b);
  !r

(* machine: construction of the 16-processor, 4 MiB machine the splash
   and kv runs start from; ms per machine. *)
let create ~n =
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4
      ~heap_bytes:(1 lsl 22) ~shards:1 ()
  in
  ns_per_op
    ~ops:(fun _ -> n)
    (fun _ ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Dsm.create cfg))
      done)
  /. 1e6

(* [scale] shrinks every batch for --smoke. *)
let all ~scale =
  let n k = max 1 (k / scale) in
  [
    ("probe.dsm.load_hit_ns", "ns", n 1_000_000, fun n -> hit ~n ~observe:false ~store:false);
    ("probe.dsm.store_hit_ns", "ns", n 1_000_000, fun n -> hit ~n ~observe:false ~store:true);
    ("probe.dsm.prog_ns", "ns", n 128_000, fun n -> daxpy ~n ~prog:true);
    ("probe.dsm.closure_ns", "ns", n 128_000, fun n -> daxpy ~n ~prog:false);
    ("probe.observer.load_hit_ns", "ns", n 1_000_000, fun n -> hit ~n ~observe:true ~store:false);
    ("probe.engine.switch_ns", "ns", n 200_000, fun n -> engine ~n ~nprocs:2);
    ("probe.engine.elided_ns", "ns", n 1_000_000, fun n -> engine ~n ~nprocs:1);
    ("probe.net.send_poll_ns", "ns", n 1_000_000, fun n -> send_poll ~n);
    ("probe.protocol.read_miss_ns", "ns", n 4_000, fun n -> read_miss ~n);
    ("probe.protocol.downgrade_ns", "ns", n 200, fun n -> downgrade ~n);
    ("probe.machine.create_ms", "ms", n 8, fun n -> create ~n);
  ]
  |> List.map (fun (name, unit_, n, f) -> { name; unit_; value = f n; n })
