module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Prng = Shasta_util.Prng

let theta = 0.7
let dt = 0.02
let eps2 = 0.0025
let steps = 1
let box = 10.0
let body_slots = 10 (* x y z vx vy vz fx fy fz mass *)
let cell_slots = 16 (* mass comx comy comz cx cy cz half child0..7 *)
let flop_cycles = 6

(* The algorithm runs over an abstract slot-addressed memory so the
   parallel (DSM) execution and the sequential reference share one
   implementation — which also makes verification exact up to floating
   reassociation. Slots are 8-byte cells. *)
type mem = {
  loadf : int -> float;
  storef : int -> float -> unit;
  loadi : int -> int;
  storei : int -> int -> unit;
  work : int -> unit;
}

type geometry = {
  n : int;
  max_cells : int;
  bodies_off : int;  (** slot of body 0 *)
  cells_off : int;  (** slot of cell 0 *)
}

let body_slot g i k = g.bodies_off + (i * body_slots) + k
let cell_slot g c k = g.cells_off + (c * cell_slots) + k

(* Child encoding: 0 = empty, c+1 = cell c, -(i+1) = body i. *)
let enc_cell c = c + 1
let enc_body i = -(i + 1)

let octant mem g c x y z =
  let cx = mem.loadf (cell_slot g c 4)
  and cy = mem.loadf (cell_slot g c 5)
  and cz = mem.loadf (cell_slot g c 6) in
  (if x >= cx then 1 else 0)
  lor (if y >= cy then 2 else 0)
  lor if z >= cz then 4 else 0

let child_center mem g c oct =
  let half = mem.loadf (cell_slot g c 7) /. 2.0 in
  let off b = if b then half else -.half in
  ( mem.loadf (cell_slot g c 4) +. off (oct land 1 <> 0),
    mem.loadf (cell_slot g c 5) +. off (oct land 2 <> 0),
    mem.loadf (cell_slot g c 6) +. off (oct land 4 <> 0),
    half )

let new_cell mem g ~ncells ~cx ~cy ~cz ~half =
  let c = !ncells in
  if c >= g.max_cells then failwith "Barnes: out of cells";
  incr ncells;
  mem.storef (cell_slot g c 0) 0.0;
  mem.storef (cell_slot g c 4) cx;
  mem.storef (cell_slot g c 5) cy;
  mem.storef (cell_slot g c 6) cz;
  mem.storef (cell_slot g c 7) half;
  for o = 0 to 7 do
    mem.storei (cell_slot g c (8 + o)) 0
  done;
  c

let build_tree mem g =
  let ncells = ref 0 in
  let root =
    new_cell mem g ~ncells ~cx:(box /. 2.0) ~cy:(box /. 2.0) ~cz:(box /. 2.0)
      ~half:(box /. 2.0)
  in
  let body_pos i =
    ( mem.loadf (body_slot g i 0),
      mem.loadf (body_slot g i 1),
      mem.loadf (body_slot g i 2) )
  in
  let rec insert c i =
    let x, y, z = body_pos i in
    let oct = octant mem g c x y z in
    mem.work (8 * flop_cycles);
    let slot = cell_slot g c (8 + oct) in
    let cur = mem.loadi slot in
    if cur = 0 then mem.storei slot (enc_body i)
    else if cur > 0 then insert (cur - 1) i
    else begin
      (* Occupied by a body: split this octant into a fresh cell. *)
      let j = -cur - 1 in
      let cx, cy, cz, half = child_center mem g c oct in
      let nc = new_cell mem g ~ncells ~cx ~cy ~cz ~half in
      mem.storei slot (enc_cell nc);
      insert nc j;
      insert nc i
    end
  in
  for i = 0 to g.n - 1 do
    insert root i
  done;
  root

let compute_masses mem g root =
  let rec go c =
    let mass = ref 0.0 and mx = ref 0.0 and my = ref 0.0 and mz = ref 0.0 in
    for o = 0 to 7 do
      let v = mem.loadi (cell_slot g c (8 + o)) in
      if v > 0 then begin
        go (v - 1);
        let m = mem.loadf (cell_slot g (v - 1) 0) in
        mass := !mass +. m;
        mx := !mx +. (m *. mem.loadf (cell_slot g (v - 1) 1));
        my := !my +. (m *. mem.loadf (cell_slot g (v - 1) 2));
        mz := !mz +. (m *. mem.loadf (cell_slot g (v - 1) 3))
      end
      else if v < 0 then begin
        let i = -v - 1 in
        let m = mem.loadf (body_slot g i 9) in
        mass := !mass +. m;
        mx := !mx +. (m *. mem.loadf (body_slot g i 0));
        my := !my +. (m *. mem.loadf (body_slot g i 1));
        mz := !mz +. (m *. mem.loadf (body_slot g i 2))
      end;
      mem.work (8 * flop_cycles)
    done;
    mem.storef (cell_slot g c 0) !mass;
    let m = Float.max !mass 1e-30 in
    mem.storef (cell_slot g c 1) (!mx /. m);
    mem.storef (cell_slot g c 2) (!my /. m);
    mem.storef (cell_slot g c 3) (!mz /. m)
  in
  go root

let force_on mem g root i =
  let x = mem.loadf (body_slot g i 0)
  and y = mem.loadf (body_slot g i 1)
  and z = mem.loadf (body_slot g i 2) in
  let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
  let add m px py pz =
    let dx = px -. x and dy = py -. y and dz = pz -. z in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. eps2 in
    let inv = 1.0 /. (r2 *. Float.sqrt r2) in
    fx := !fx +. (m *. dx *. inv);
    fy := !fy +. (m *. dy *. inv);
    fz := !fz +. (m *. dz *. inv);
    (* 12 pipelined flops plus a divide and a square root, both long
       unpipelined operations on the 21164 (~60 and ~30 cycles). *)
    mem.work ((12 * flop_cycles) + 90)
  in
  let rec visit c =
    let comx = mem.loadf (cell_slot g c 1)
    and comy = mem.loadf (cell_slot g c 2)
    and comz = mem.loadf (cell_slot g c 3) in
    let dx = comx -. x and dy = comy -. y and dz = comz -. z in
    let d2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    let size = 2.0 *. mem.loadf (cell_slot g c 7) in
    mem.work (8 * flop_cycles);
    if size *. size < theta *. theta *. d2 then
      add (mem.loadf (cell_slot g c 0)) comx comy comz
    else
      for o = 0 to 7 do
        let v = mem.loadi (cell_slot g c (8 + o)) in
        if v > 0 then visit (v - 1)
        else if v < 0 then begin
          let j = -v - 1 in
          if j <> i then
            add
              (mem.loadf (body_slot g j 9))
              (mem.loadf (body_slot g j 0))
              (mem.loadf (body_slot g j 1))
              (mem.loadf (body_slot g j 2))
        end
      done
  in
  visit root;
  (!fx, !fy, !fz)

let integrate mem g i =
  for d = 0 to 2 do
    let v =
      mem.loadf (body_slot g i (3 + d)) +. (mem.loadf (body_slot g i (6 + d)) *. dt)
    in
    mem.storef (body_slot g i (3 + d)) v;
    mem.storef (body_slot g i d) (mem.loadf (body_slot g i d) +. (v *. dt));
    mem.work (4 * flop_cycles)
  done

(* [integrate] can be overridden with an equivalent per-body routine —
   the DSM body substitutes the {!Kernels.barnes_integrate} kernel; the
   sequential reference keeps this form. *)
let run_step ?integrate:integ mem g ~lo ~hi ~build ~sync =
  let integ =
    match integ with None -> fun i -> integrate mem g i | Some f -> f
  in
  if build then begin
    let root = build_tree mem g in
    compute_masses mem g root
  end;
  sync ();
  for i = lo to hi - 1 do
    let fx, fy, fz = force_on mem g 0 i in
    mem.storef (body_slot g i 6) fx;
    mem.storef (body_slot g i 7) fy;
    mem.storef (body_slot g i 8) fz
  done;
  sync ();
  for i = lo to hi - 1 do
    integ i
  done;
  sync ()

let instance ?(vg = false) ?(scale = 1.0) () =
  let n = App.scaled scale 2048 in
  let max_cells = 4 * n in
  let g = { n; max_cells; bodies_off = 0; cells_off = n * body_slots } in
  let total_slots = (n * body_slots) + (max_cells * cell_slots) in
  {
    App.name = "barnes";
    workload = Printf.sprintf "%d bodies, theta=%.1f, %d steps%s" n theta steps
        (if vg then ", vg 512B" else "");
    heap_bytes = (total_slots * 8) + (1 lsl 16);
    setup =
      (fun h ->
        let prng = Prng.create 4242 in
        let init = Array.make total_slots 0.0 in
        for i = 0 to n - 1 do
          for d = 0 to 2 do
            init.((i * body_slots) + d) <- Prng.float prng box
          done;
          for d = 3 to 5 do
            init.((i * body_slots) + d) <- 0.02 *. (Prng.float prng 1.0 -. 0.5)
          done;
          init.((i * body_slots) + 9) <- 0.5 +. Prng.float prng 1.0
        done;
        (* Shared layout: bodies array then cells array. *)
        let bodies = Dsm.alloc_floats h (n * body_slots) in
        (* The tree is (re)built serially by processor 0; homing the
           cell array there keeps the build free of remote write misses
           (readers still fetch the cells, as on the real system). *)
        let cells =
          Dsm.alloc_floats h
            ?block_size:(if vg then Some 512 else None)
            ~home:0 (max_cells * cell_slots)
        in
        let addr_of_slot s =
          if s < g.cells_off then bodies + (8 * s)
          else cells + (8 * (s - g.cells_off))
        in
        for i = 0 to n - 1 do
          for k = 0 to body_slots - 1 do
            Dsm.poke_float h
              (addr_of_slot (body_slot g i k))
              init.((i * body_slots) + k)
          done
        done;
        (* Sequential reference over a plain array. *)
        let ref_mem =
          {
            loadf = (fun s -> init.(s));
            storef = (fun s v -> init.(s) <- v);
            loadi = (fun s -> int_of_float init.(s));
            storei = (fun s v -> init.(s) <- float_of_int v);
            work = ignore;
          }
        in
        for _s = 1 to steps do
          run_step ref_mem g ~lo:0 ~hi:n ~build:true ~sync:ignore
        done;
        let bar = Dsm.alloc_barrier h in
        let np = (Dsm.config h).Config.nprocs in
        let body ctx =
          let p = Dsm.pid ctx in
          let lo = p * n / np and hi = (p + 1) * n / np in
          let mem =
            {
              loadf = (fun s -> Dsm.load_float ctx (addr_of_slot s));
              storef = (fun s v -> Dsm.store_float ctx (addr_of_slot s) v);
              loadi = (fun s -> Dsm.load_int ctx (addr_of_slot s));
              storei = (fun s v -> Dsm.store_int ctx (addr_of_slot s) v);
              work = (fun c -> Dsm.compute ctx c);
            }
          in
          let iprog = Kernels.barnes_integrate ~dt ~flop_cycles in
          let integrate i =
            Dsm.Prog.run ctx iprog ~s:0.0 ~aux:Dsm.Prog.no_aux
              ~base0:(addr_of_slot (body_slot g i 0))
              ~base1:0 ~base2:0
          in
          for _s = 1 to steps do
            run_step ~integrate mem g ~lo ~hi ~build:(p = 0)
              ~sync:(fun () -> Dsm.barrier ctx bar)
          done
        in
        let verify h =
          let worst = ref 0.0 in
          for i = 0 to n - 1 do
            for d = 0 to 2 do
              let got = Dsm.peek_float h (addr_of_slot (body_slot g i d)) in
              let want = init.((i * body_slots) + d) in
              worst := Float.max !worst (Float.abs (got -. want))
            done
          done;
          if !worst < 1e-6 then
            App.pass ~detail:(Printf.sprintf "max pos err %.2e" !worst)
          else App.fail ~detail:(Printf.sprintf "max pos err %.2e" !worst)
        in
        (body, verify));
  }
