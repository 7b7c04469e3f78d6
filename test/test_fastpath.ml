(* Inline-check fast-path equivalence (§3.3) and kernel parity.

   Every {!Dsm.Prog} kernel the apps run (LU's daxpy row, the water
   integrate, Barnes' integrate, Ocean's red-black row and rhs
   prefetch, FMM's expansion-vector transfers) is executed twice on
   identical machines — once as the kernel, once as the hand-written
   loop below, which is the oracle for its access sequence — on a
   contended SMP configuration. Finish cycles, memory, per-op hook
   streams and (normalized) statistics must be identical, with the
   fused hit check on and off, observed and unobserved.

   [fast_hits] records how many accesses took the fused first-level
   check and [prog_accesses] how many a kernel issued; both are
   observability counters that the equivalence deliberately varies,
   so they are zeroed before statistics are compared. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Stats = Shasta_core.Stats
module Observer = Shasta_core.Observer
module Kernels = Shasta_apps.Kernels

let smp ~fastpath () =
  Dsm.create
    (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ~fastpath ())

type outcome = {
  values : int64 array;  (* bits, so NaNs and -0.0 compare exactly *)
  cycles : int;
  stats : Stats.t;
  events : (char * int * int * int * int) list;
}

let norm st = { st with Stats.prog_accesses = 0; Stats.fast_hits = 0 }

(* Run [body] on a fresh machine; [init] seeds memory and returns the
   addresses to read back afterwards. *)
let execute ~fastpath ~record ~init ~body =
  let h = smp ~fastpath () in
  let watch = init h in
  let events = ref [] in
  if record then
    Dsm.add_observer h
      {
        Observer.nil with
        on_load =
          (fun ~proc ~addr ~len ~now ->
            events := ('L', proc, addr, len, now) :: !events);
        on_store =
          (fun ~proc ~addr ~len ~now ->
            events := ('S', proc, addr, len, now) :: !events);
      };
  Dsm.run h (fun ctx -> body ctx);
  {
    values =
      Array.map (fun a -> Int64.bits_of_float (Dsm.peek_float h a)) watch;
    cycles = Dsm.parallel_cycles h;
    stats = Dsm.aggregate_stats h;
    events = List.rev !events;
  }

(* Loop-vs-kernel parity under one (fastpath, record) combination:
   everything but the dispatch counters must coincide. *)
let check_one ~name ~fastpath ~record ~init ~closure ~prog =
  let c = execute ~fastpath ~record ~init ~body:closure in
  let p = execute ~fastpath ~record ~init ~body:prog in
  let tag fmt = Printf.sprintf "%s fp=%b rec=%b %s" name fastpath record fmt in
  Alcotest.(check (array int64)) (tag "values") c.values p.values;
  Alcotest.(check int) (tag "cycles") c.cycles p.cycles;
  Alcotest.(check bool) (tag "stats") true (norm c.stats = norm p.stats);
  Alcotest.(check bool) (tag "hook stream") true (c.events = p.events);
  if record then
    Alcotest.(check bool)
      (tag "hooks fired")
      true
      (List.length p.events > 0);
  p

(* The full matrix for one kernel: both toggles, observed and
   unobserved, plus the cross-cutting invariants — the toggle must not
   move a single cycle, value or (normalized) statistic, and the
   observed run must land on the unobserved one's finish clock. An
   installed observer forces the reference path, so the fused check
   runs only in the unobserved pair: the toggle's stats are compared
   there, and the hook-stream check compares the reference path
   against itself. *)
let check_kernel ~name ~init ~closure ~prog () =
  let on_obs = check_one ~name ~fastpath:true ~record:true ~init ~closure ~prog in
  let on_un = check_one ~name ~fastpath:true ~record:false ~init ~closure ~prog in
  let off_obs =
    check_one ~name ~fastpath:false ~record:true ~init ~closure ~prog
  in
  let off_un =
    check_one ~name ~fastpath:false ~record:false ~init ~closure ~prog
  in
  Alcotest.(check int) (name ^ " observed = unobserved cycles") on_un.cycles
    on_obs.cycles;
  Alcotest.(check int) (name ^ " toggle keeps cycles") on_un.cycles
    off_un.cycles;
  Alcotest.(check (array int64)) (name ^ " toggle keeps values") on_un.values
    off_un.values;
  Alcotest.(check bool) (name ^ " toggle keeps stats") true
    (norm on_un.stats = norm off_un.stats);
  Alcotest.(check bool) (name ^ " toggle keeps stats (observed)") true
    (norm on_obs.stats = norm off_obs.stats);
  Alcotest.(check bool) (name ^ " toggle keeps hooks") true
    (on_obs.events = off_obs.events);
  Alcotest.(check bool) (name ^ " prog ran as prog") true
    (on_un.stats.Stats.prog_accesses > 0)

(* ------------------------------------------------------------------ *)
(* Kernel 1: LU's daxpy row, two processors on distinct nodes sharing
   the dst block (element-disjoint halves — block-contended). *)

let fms_len = 8
let fms_cost = 6

let fms_init h =
  let dst = Dsm.alloc_floats h ~block_size:128 16 in
  let src = Dsm.alloc_floats h ~block_size:128 16 in
  for i = 0 to 15 do
    Dsm.poke_float h (dst + (8 * i)) (float_of_int (10 + i));
    Dsm.poke_float h (src + (8 * i)) (0.5 *. float_of_int i)
  done;
  (dst, src)

let fms_half (dst, src) p = if p = 0 then (dst, src) else (dst + 64, src + 64)

let fms_body ~use_prog (dst0, src0) ctx =
  let p = Dsm.pid ctx in
  if p = 0 || p = 4 then begin
    let dst, src = fms_half (dst0, src0) (if p = 0 then 0 else 1) in
    let s = 2.0 in
    for _round = 1 to 3 do
      Dsm.batch ctx
        [ (dst, fms_len * 8, Dsm.W); (src, fms_len * 8, Dsm.R) ]
        (fun () ->
          if use_prog then
            let prog = Dsm.Prog.fms_row ~len:fms_len ~cost:fms_cost in
            Dsm.Prog.run ctx prog ~s ~aux:Dsm.Prog.no_aux ~base0:dst
              ~base1:src ~base2:0
          else
            for c = 0 to fms_len - 1 do
              let v = Dsm.Batch.load_float ctx (src + (8 * c)) in
              let d = Dsm.Batch.load_float ctx (dst + (8 * c)) in
              Dsm.Batch.store_float ctx (dst + (8 * c)) (d -. (s *. v));
              Dsm.compute ctx fms_cost
            done);
      Dsm.compute ctx 40
    done
  end

let test_fms () =
  let watch = ref [||] in
  check_kernel ~name:"fms_row"
    ~init:(fun h ->
      let dst, src = fms_init h in
      watch := [| dst; src |];
      Array.init 16 (fun i -> dst + (8 * i)))
    ~closure:(fun ctx -> fms_body ~use_prog:false (!watch.(0), !watch.(1)) ctx)
    ~prog:(fun ctx -> fms_body ~use_prog:true (!watch.(0), !watch.(1)) ctx)
    ()

(* ------------------------------------------------------------------ *)
(* Kernel 2: the water integrate — 9-float molecules, two per 128-byte
   block so the two integrating processors contend. *)

let w_dt = 0.002
let w_box = 4.0
let w_flop = 5

let wrap q box = if q < 0.0 then q +. box else if q >= box then q -. box else q

let water_init h =
  (* Four 9-float molecules plus slack: 40 floats, 128-byte blocks, so
     molecule boundaries fall mid-block and neighbours contend. *)
  let mols = Dsm.alloc_floats h ~block_size:128 40 in
  for i = 0 to 39 do
    Dsm.poke_float h (mols + (8 * i)) (wrap (0.37 *. float_of_int i) w_box)
  done;
  mols

let water_closure_mol ctx m =
  for d = 0 to 2 do
    let fdt = Dsm.Batch.load_float ctx (m + (8 * (6 + d))) *. w_dt in
    let v' = Dsm.Batch.load_float ctx (m + (8 * (3 + d))) +. fdt in
    Dsm.Batch.store_float ctx (m + (8 * (3 + d))) v';
    let vdt = v' *. w_dt in
    let x' = Dsm.Batch.load_float ctx (m + (8 * d)) +. vdt in
    let x' = wrap x' w_box in
    Dsm.Batch.store_float ctx (m + (8 * d)) x';
    Dsm.Batch.store_float ctx (m + (8 * (6 + d))) 0.0;
    Dsm.compute ctx (4 * w_flop)
  done

let water_body ~use_prog mols ctx =
  let p = Dsm.pid ctx in
  if p = 0 || p = 4 then begin
    let integ =
      if use_prog then
        Some (Kernels.water_integrate ~dt:w_dt ~box:w_box ~flop_cycles:w_flop)
      else None
    in
    (* Contiguous ownership like the real app: the range boundary falls
       mid-block, so the two processors contend on the shared block. *)
    let mine = if p = 0 then [ 0; 1 ] else [ 2; 3 ] in
    List.iter
      (fun i ->
        let m = mols + (72 * i) in
        Dsm.batch ctx
          [ (m, 72, Dsm.W) ]
          (fun () ->
            match integ with
            | Some prog ->
              Dsm.Prog.run ctx prog ~s:0.0 ~aux:Dsm.Prog.no_aux ~base0:m
                ~base1:0 ~base2:0
            | None -> water_closure_mol ctx m);
        Dsm.compute ctx 25)
      mine
  end

let test_water () =
  let mols = ref 0 in
  check_kernel ~name:"water_integrate"
    ~init:(fun h ->
      mols := water_init h;
      Array.init 36 (fun i -> !mols + (8 * i)))
    ~closure:(fun ctx -> water_body ~use_prog:false !mols ctx)
    ~prog:(fun ctx -> water_body ~use_prog:true !mols ctx)
    ()

(* ------------------------------------------------------------------ *)
(* Kernel 3: Barnes' integrate — the checked (outside-batch) variant. *)

let barnes_closure_body ctx b =
  for d = 0 to 2 do
    let fdt = Dsm.load_float ctx (b + (8 * (6 + d))) *. w_dt in
    let v' = Dsm.load_float ctx (b + (8 * (3 + d))) +. fdt in
    Dsm.store_float ctx (b + (8 * (3 + d))) v';
    let vdt = v' *. w_dt in
    let x' = Dsm.load_float ctx (b + (8 * d)) +. vdt in
    Dsm.store_float ctx (b + (8 * d)) x';
    Dsm.compute ctx (4 * w_flop)
  done

let barnes_body ~use_prog bodies ctx =
  let p = Dsm.pid ctx in
  if p = 0 || p = 4 then begin
    let iprog =
      if use_prog then
        Some (Kernels.barnes_integrate ~dt:w_dt ~flop_cycles:w_flop)
      else None
    in
    let mine = if p = 0 then [ 0; 1 ] else [ 2; 3 ] in
    List.iter
      (fun i ->
        let b = bodies + (72 * i) in
        (match iprog with
        | Some prog ->
          Dsm.Prog.run ctx prog ~s:0.0 ~aux:Dsm.Prog.no_aux ~base0:b ~base1:0
            ~base2:0
        | None -> barnes_closure_body ctx b);
        Dsm.compute ctx 25)
      mine
  end

let test_barnes () =
  let bodies = ref 0 in
  check_kernel ~name:"barnes_integrate"
    ~init:(fun h ->
      bodies := water_init h;
      Array.init 36 (fun i -> !bodies + (8 * i)))
    ~closure:(fun ctx -> barnes_body ~use_prog:false !bodies ctx)
    ~prog:(fun ctx -> barnes_body ~use_prog:true !bodies ctx)
    ()

(* ------------------------------------------------------------------ *)
(* Kernels 4 and 5: Ocean's red-black SOR row and its checked rhs
   prefetch. Two processors sweep adjacent interior rows of a shared
   grid (each row one block; neighbour rows contended). *)

let oc_n = 6 (* interior columns 1..6, row stride 8 floats *)
let oc_omega = 1.1
let oc_cell = 9
let oc_stride = 8 * 8

let ocean_init h =
  let grid = Dsm.alloc_floats h ~block_size:64 32 in
  let rhs = Dsm.alloc_floats h ~block_size:64 32 in
  for i = 0 to 31 do
    Dsm.poke_float h (grid + (8 * i)) (Float.of_int ((i * 7 mod 13) - 6) /. 3.0);
    Dsm.poke_float h (rhs + (8 * i)) (Float.of_int (i mod 5) /. 7.0)
  done;
  (grid, rhs)

let ocean_closure_rhs ctx rhs_row frow ~jstart =
  let j = ref jstart in
  while !j <= oc_n do
    frow.(!j) <- Dsm.load_float ctx (rhs_row + (8 * !j));
    j := !j + 2
  done

let ocean_closure_row ctx ~im1 ~ip1 ~row frow ~jstart =
  let j = ref jstart in
  while !j <= oc_n do
    let jj = !j in
    let v =
      0.25
      *. (Dsm.Batch.load_float ctx (im1 + (8 * jj))
          +. Dsm.Batch.load_float ctx (ip1 + (8 * jj))
          +. Dsm.Batch.load_float ctx (row + (8 * (jj - 1)))
          +. Dsm.Batch.load_float ctx (row + (8 * (jj + 1)))
         -. frow.(jj))
    in
    let old = Dsm.Batch.load_float ctx (row + (8 * jj)) in
    Dsm.Batch.store_float ctx (row + (8 * jj))
      (((1.0 -. oc_omega) *. old) +. (oc_omega *. v));
    Dsm.compute ctx oc_cell;
    j := jj + 2
  done

let ocean_body ~use_prog (grid, rhs) ctx =
  let p = Dsm.pid ctx in
  if p = 0 || p = 4 then begin
    let i = if p = 0 then 1 else 2 (* adjacent interior rows *) in
    let row = grid + (i * oc_stride) in
    let im1 = grid + ((i - 1) * oc_stride) in
    let ip1 = grid + ((i + 1) * oc_stride) in
    let rhs_row = rhs + (i * oc_stride) in
    let frow = Array.make (oc_n + 2) 0.0 in
    let jstart = 1 + (i mod 2) in
    let rhs_p = if use_prog then Some (Kernels.ocean_rhs_row ~n:oc_n ~jstart) else None in
    let row_p =
      if use_prog then
        Some (Kernels.ocean_row ~n:oc_n ~jstart ~omega:oc_omega ~cell_cycles:oc_cell)
      else None
    in
    (match rhs_p with
    | Some prog ->
      Dsm.Prog.run ctx prog ~s:0.0 ~aux:frow ~base0:rhs_row ~base1:0 ~base2:0
    | None -> ocean_closure_rhs ctx rhs_row frow ~jstart);
    Dsm.batch ctx
      [
        (im1, oc_stride, Dsm.R); (ip1, oc_stride, Dsm.R); (row, oc_stride, Dsm.W);
      ]
      (fun () ->
        match row_p with
        | Some prog ->
          Dsm.Prog.run ctx prog ~s:0.0 ~aux:frow ~base0:im1 ~base1:ip1
            ~base2:row
        | None -> ocean_closure_row ctx ~im1 ~ip1 ~row frow ~jstart);
    Dsm.compute ctx 30
  end

let test_ocean () =
  let mem = ref (0, 0) in
  check_kernel ~name:"ocean_row"
    ~init:(fun h ->
      mem := ocean_init h;
      let grid, _ = !mem in
      Array.init 32 (fun i -> grid + (8 * i)))
    ~closure:(fun ctx -> ocean_body ~use_prog:false !mem ctx)
    ~prog:(fun ctx -> ocean_body ~use_prog:true !mem ctx)
    ()

(* ------------------------------------------------------------------ *)
(* Kernel 6: FMM's expansion-vector read/write transfers. Processor 4
   copies a vector processor 0 just wrote, through host scratch. *)

let vk = 10

let vec_body ~use_prog (va, vb) ctx =
  let p = Dsm.pid ctx in
  let a = Array.make vk 0.0 in
  if p = 0 then
    Dsm.batch ctx
      [ (va, vk * 8, Dsm.W) ]
      (fun () ->
        if use_prog then begin
          for i = 0 to vk - 1 do
            a.(i) <- 1.5 +. float_of_int i
          done;
          Dsm.Prog.run ctx (Kernels.vec_write ~k:vk) ~s:0.0 ~aux:a ~base0:va
            ~base1:0 ~base2:0
        end
        else
          for i = 0 to vk - 1 do
            Dsm.Batch.store_float ctx (va + (8 * i)) (1.5 +. float_of_int i)
          done)
  else if p = 4 then begin
    Dsm.compute ctx 400;
    Dsm.batch ctx
      [ (va, vk * 8, Dsm.R) ]
      (fun () ->
        if use_prog then
          Dsm.Prog.run ctx (Kernels.vec_read ~k:vk) ~s:0.0 ~aux:a ~base0:va
            ~base1:0 ~base2:0
        else
          for i = 0 to vk - 1 do
            a.(i) <- Dsm.Batch.load_float ctx (va + (8 * i))
          done);
    Dsm.batch ctx
      [ (vb, vk * 8, Dsm.W) ]
      (fun () ->
        if use_prog then
          Dsm.Prog.run ctx (Kernels.vec_write ~k:vk) ~s:0.0 ~aux:a ~base0:vb
            ~base1:0 ~base2:0
        else
          for i = 0 to vk - 1 do
            Dsm.Batch.store_float ctx (vb + (8 * i)) a.(i)
          done)
  end

let test_vec () =
  let mem = ref (0, 0) in
  check_kernel ~name:"vec_transfer"
    ~init:(fun h ->
      let va = Dsm.alloc_floats h ~block_size:64 vk in
      let vb = Dsm.alloc_floats h ~block_size:64 vk in
      mem := (va, vb);
      Array.append
        (Array.init vk (fun i -> va + (8 * i)))
        (Array.init vk (fun i -> vb + (8 * i))))
    ~closure:(fun ctx -> vec_body ~use_prog:false !mem ctx)
    ~prog:(fun ctx -> vec_body ~use_prog:true !mem ctx)
    ()

let () =
  Alcotest.run "fastpath"
    [
      ( "kernel parity",
        [
          Alcotest.test_case "lu fms_row" `Quick test_fms;
          Alcotest.test_case "water integrate" `Quick test_water;
          Alcotest.test_case "barnes integrate" `Quick test_barnes;
          Alcotest.test_case "ocean row + rhs" `Quick test_ocean;
          Alcotest.test_case "fmm vec transfer" `Quick test_vec;
        ] );
    ]
