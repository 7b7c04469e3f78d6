module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Prng = Shasta_util.Prng

let p_order = 12
let nterms = p_order + 1 (* complex coefficients a_0..a_p *)
let coeff_floats = 2 * nterms
let levels = 4 (* leaf level; level l has 4^l boxes *)
let leaf_cap = 24
let body_slots = 4 (* x y q pot *)
let flop_cycles = 6

let nboxes l = 1 lsl (2 * l)
let side l = 1 lsl l

(* Binomial table, large enough for C(2p, k). *)
let binom =
  let nmax = (2 * p_order) + 2 in
  let t = Array.make_matrix nmax nmax 0.0 in
  for i = 0 to nmax - 1 do
    t.(i).(0) <- 1.0;
    for j = 1 to i do
      t.(i).(j) <- t.(i - 1).(j - 1) +. (if j <= i - 1 then t.(i - 1).(j) else 0.0)
    done
  done;
  fun n k -> if k < 0 || k > n then 0.0 else t.(n).(k)

(* Complex values are (re, im) pairs packed in float arrays; the
   expansion operators below keep them in plain float locals (see the
   comment before [p2m]). *)

(* Abstract memory so the DSM run and the sequential reference share the
   algorithm. Vectors model batched access to whole expansions. *)
type mem = {
  loadf : int -> float;
  storef : int -> float -> unit;
  loadi : int -> int;
  storei : int -> int -> unit;
  read_vec : int -> int -> float array;
  write_vec : int -> float array -> unit;
  work : int -> unit;
}

type geometry = {
  n : int;
  bodies_off : int;
  mpole_off : int array;  (** per level *)
  local_off : int array;
  leaf_off : int;  (** leaf lists: (1 + leaf_cap) slots per leaf box *)
  total_slots : int;
}

let make_geometry n =
  let off = ref 0 in
  let take k =
    let v = !off in
    off := !off + k;
    v
  in
  let bodies_off = take (n * body_slots) in
  let mpole_off =
    Array.init (levels + 1) (fun l ->
        if l < 2 then 0 else take (nboxes l * coeff_floats))
  in
  let local_off =
    Array.init (levels + 1) (fun l ->
        if l < 2 then 0 else take (nboxes l * coeff_floats))
  in
  let leaf_off = take (nboxes levels * (1 + leaf_cap)) in
  { n; bodies_off; mpole_off; local_off; leaf_off; total_slots = !off }

let body_slot g i k = g.bodies_off + (i * body_slots) + k
let mpole_slot g l b = g.mpole_off.(l) + (b * coeff_floats)
let local_slot g l b = g.local_off.(l) + (b * coeff_floats)
let leaf_slot g b = g.leaf_off + (b * (1 + leaf_cap))

let box_center l b =
  let s = side l in
  let ix = b mod s and iy = b / s in
  let w = 1.0 /. float_of_int s in
  ((float_of_int ix +. 0.5) *. w, (float_of_int iy +. 0.5) *. w)

let box_index l x y =
  let s = side l in
  let ix = min (s - 1) (int_of_float (x *. float_of_int s)) in
  let iy = min (s - 1) (int_of_float (y *. float_of_int s)) in
  (iy * s) + ix

let neighbors l b =
  let s = side l in
  let ix = b mod s and iy = b / s in
  let acc = ref [] in
  for dy = -1 to 1 do
    for dx = -1 to 1 do
      let nx = ix + dx and ny = iy + dy in
      if nx >= 0 && nx < s && ny >= 0 && ny < s then
        acc := ((ny * s) + nx) :: !acc
    done
  done;
  List.rev !acc

let adjacent l a b =
  let s = side l in
  abs ((a mod s) - (b mod s)) <= 1 && abs ((a / s) - (b / s)) <= 1

(* Children of the parent's neighbours that are not adjacent to [b]. *)
let interaction_list l b =
  let parent = ((b / side l / 2 * (side l / 2)) + (b mod side l / 2)) in
  let kids pb =
    let ps = side (l - 1) in
    let px = pb mod ps and py = pb / ps in
    List.concat_map
      (fun dy ->
        List.map (fun dx -> (((2 * py) + dy) * side l) + (2 * px) + dx) [ 0; 1 ])
      [ 0; 1 ]
  in
  List.concat_map kids (neighbors (l - 1) parent)
  |> List.filter (fun c -> not (adjacent l c b))

(* --- Expansion operators (log kernel). --- *)

(* The expansion operators below keep their complex arithmetic in plain
   float locals (two per complex value) instead of the (re, im) tuples
   of the helpers above: the O(p^2) inner loops dominate the app's host
   time and a tuple per cmul/cadd made them allocation-bound. Each
   expression is the literal unfolding of the corresponding helper
   chain, so the computed values — and therefore the simulated run —
   are bit-identical. *)

let p2m mem g b =
  let cx, cy = box_center levels b in
  let c = Array.make coeff_floats 0.0 in
  let cnt = mem.loadi (leaf_slot g b) in
  for m = 0 to cnt - 1 do
    let i = mem.loadi (leaf_slot g b + 1 + m) in
    let x = mem.loadf (body_slot g i 0)
    and y = mem.loadf (body_slot g i 1)
    and q = mem.loadf (body_slot g i 2) in
    let zr = x -. cx and zi = y -. cy in
    c.(0) <- c.(0) +. q;
    c.(1) <- c.(1) +. 0.0;
    let zkr = ref 1.0 and zki = ref 0.0 in
    for k = 1 to p_order do
      let nr = (!zkr *. zr) -. (!zki *. zi)
      and ni = (!zkr *. zi) +. (!zki *. zr) in
      zkr := nr;
      zki := ni;
      let s = -.q /. float_of_int k in
      c.(2 * k) <- c.(2 * k) +. (s *. !zkr);
      c.((2 * k) + 1) <- c.((2 * k) + 1) +. (s *. !zki);
      mem.work (6 * flop_cycles)
    done
  done;
  mem.write_vec (mpole_slot g levels b) c

let m2m mem g l b =
  (* Combine the four children's multipoles into box [b] at level [l]. *)
  let cx, cy = box_center l b in
  let out = Array.make coeff_floats 0.0 in
  let s = side l in
  let ix = b mod s and iy = b / s in
  for dy = 0 to 1 do
    for dx = 0 to 1 do
      let cb = ((((2 * iy) + dy) * side (l + 1)) + (2 * ix) + dx) in
      let a = mem.read_vec (mpole_slot g (l + 1) cb) coeff_floats in
      let ccx, ccy = box_center (l + 1) cb in
      let dr = ccx -. cx and di = ccy -. cy in
      let a0r = a.(0) and a0i = a.(1) in
      out.(0) <- out.(0) +. a0r;
      out.(1) <- out.(1) +. a0i;
      let dlr = ref 1.0 and dli = ref 0.0 in
      for ll = 1 to p_order do
        let nr = (!dlr *. dr) -. (!dli *. di)
        and ni = (!dlr *. di) +. (!dli *. dr) in
        dlr := nr;
        dli := ni;
        (* -a0 d^l / l *)
        let s = -1.0 /. float_of_int ll in
        let mr = (a0r *. !dlr) -. (a0i *. !dli)
        and mi = (a0r *. !dli) +. (a0i *. !dlr) in
        out.(2 * ll) <- out.(2 * ll) +. (s *. mr);
        out.((2 * ll) + 1) <- out.((2 * ll) + 1) +. (s *. mi);
        let dpr = ref 1.0 and dpi = ref 0.0 in
        (* sum_{k=1..l} a_k d^{l-k} C(l-1,k-1), accumulate from k=l down *)
        for k = ll downto 1 do
          (* d^{l-k}: when k = l this is 1; we build it incrementally. *)
          let akr = a.(2 * k) and aki = a.((2 * k) + 1) in
          let s = binom (ll - 1) (k - 1) in
          let mr = (akr *. !dpr) -. (aki *. !dpi)
          and mi = (akr *. !dpi) +. (aki *. !dpr) in
          out.(2 * ll) <- out.(2 * ll) +. (s *. mr);
          out.((2 * ll) + 1) <- out.((2 * ll) + 1) +. (s *. mi);
          let nr = (!dpr *. dr) -. (!dpi *. di)
          and ni = (!dpr *. di) +. (!dpi *. dr) in
          dpr := nr;
          dpi := ni;
          mem.work (8 * flop_cycles)
        done
      done
    done
  done;
  mem.write_vec (mpole_slot g l b) out

let m2l mem g l ~src ~dst out =
  let sx, sy = box_center l src and dx_, dy_ = box_center l dst in
  let a = mem.read_vec (mpole_slot g l src) coeff_floats in
  let dr = sx -. dx_ and di = sy -. dy_ in
  let a0r = a.(0) and a0i = a.(1) in
  (* c_0 = a0 log(-d) + sum_k a_k (-1)^k / d^k *)
  let ndr = -1.0 *. dr and ndi = -1.0 *. di in
  let lgr = 0.5 *. Float.log ((ndr *. ndr) +. (ndi *. ndi))
  and lgi = Float.atan2 ndi ndr in
  let c0r = ref ((a0r *. lgr) -. (a0i *. lgi))
  and c0i = ref ((a0r *. lgi) +. (a0i *. lgr)) in
  let dkr = ref 1.0 and dki = ref 0.0 in
  for k = 1 to p_order do
    let nr = (!dkr *. dr) -. (!dki *. di)
    and ni = (!dkr *. di) +. (!dki *. dr) in
    dkr := nr;
    dki := ni;
    let sign = if k land 1 = 1 then -1.0 else 1.0 in
    let den = (!dkr *. !dkr) +. (!dki *. !dki) in
    let ibr = !dkr /. den and ibi = -. !dki /. den in
    let akr = a.(2 * k) and aki = a.((2 * k) + 1) in
    let qr = (akr *. ibr) -. (aki *. ibi)
    and qi = (akr *. ibi) +. (aki *. ibr) in
    c0r := !c0r +. (sign *. qr);
    c0i := !c0i +. (sign *. qi);
    mem.work (8 * flop_cycles)
  done;
  out.(0) <- out.(0) +. !c0r;
  out.(1) <- out.(1) +. !c0i;
  let dlr = ref 1.0 and dli = ref 0.0 in
  for ll = 1 to p_order do
    let nr = (!dlr *. dr) -. (!dli *. di)
    and ni = (!dlr *. di) +. (!dli *. dr) in
    dlr := nr;
    dli := ni;
    (* -a0 / (l d^l) *)
    let dend = (!dlr *. !dlr) +. (!dli *. !dli) in
    let ilr = !dlr /. dend and ili = -. !dli /. dend in
    let s = -1.0 /. float_of_int ll in
    let qr = (a0r *. ilr) -. (a0i *. ili)
    and qi = (a0r *. ili) +. (a0i *. ilr) in
    let tr = ref (s *. qr) and ti = ref (s *. qi) in
    let dkr = ref 1.0 and dki = ref 0.0 in
    for k = 1 to p_order do
      let nr = (!dkr *. dr) -. (!dki *. di)
      and ni = (!dkr *. di) +. (!dki *. dr) in
      dkr := nr;
      dki := ni;
      let sign = if k land 1 = 1 then -1.0 else 1.0 in
      let den = (!dkr *. !dkr) +. (!dki *. !dki) in
      let ibr = !dkr /. den and ibi = -. !dki /. den in
      let akr = a.(2 * k) and aki = a.((2 * k) + 1) in
      let q1r = (akr *. ibr) -. (aki *. ibi)
      and q1i = (akr *. ibi) +. (aki *. ibr) in
      let q2r = (q1r *. ilr) -. (q1i *. ili)
      and q2i = (q1r *. ili) +. (q1i *. ilr) in
      let s = sign *. binom (ll + k - 1) (k - 1) in
      tr := !tr +. (s *. q2r);
      ti := !ti +. (s *. q2i);
      mem.work (8 * flop_cycles)
    done;
    out.(2 * ll) <- out.(2 * ll) +. !tr;
    out.((2 * ll) + 1) <- out.((2 * ll) + 1) +. !ti
  done

let l2l mem g l ~parent ~child out =
  (* Shift the parent's local expansion to the child's center. *)
  let px, py = box_center (l - 1) parent and cx, cy = box_center l child in
  let c = mem.read_vec (local_slot g (l - 1) parent) coeff_floats in
  let dr = cx -. px and di = cy -. py in
  for ll = 0 to p_order do
    let tr = ref 0.0 and ti = ref 0.0 in
    for k = ll to p_order do
      (* c_k C(k,l) d^{k-l} *)
      let dpr = ref 1.0 and dpi = ref 0.0 in
      for _ = 1 to k - ll do
        let nr = (!dpr *. dr) -. (!dpi *. di)
        and ni = (!dpr *. di) +. (!dpi *. dr) in
        dpr := nr;
        dpi := ni
      done;
      let ckr = c.(2 * k) and cki = c.((2 * k) + 1) in
      let s = binom k ll in
      let mr = (ckr *. !dpr) -. (cki *. !dpi)
      and mi = (ckr *. !dpi) +. (cki *. !dpr) in
      tr := !tr +. (s *. mr);
      ti := !ti +. (s *. mi);
      mem.work (6 * flop_cycles)
    done;
    out.(2 * ll) <- out.(2 * ll) +. !tr;
    out.((2 * ll) + 1) <- out.((2 * ll) + 1) +. !ti
  done

let eval_local c (zx, zy) =
  let vr = ref 0.0 and vi = ref 0.0 in
  let zpr = ref 1.0 and zpi = ref 0.0 in
  for k = 0 to p_order do
    let ckr = c.(2 * k) and cki = c.((2 * k) + 1) in
    vr := !vr +. ((ckr *. !zpr) -. (cki *. !zpi));
    vi := !vi +. ((ckr *. !zpi) +. (cki *. !zpr));
    let nr = (!zpr *. zx) -. (!zpi *. zy)
    and ni = (!zpr *. zy) +. (!zpi *. zx) in
    zpr := nr;
    zpi := ni
  done;
  !vr

(* --- Driver, shared by the parallel and reference executions. --- *)

type part = { lo : int array; hi : int array; blo : int; bhi : int }
(* per-level box ranges and body range for one processor *)

let run_fmm mem g part ~sync =
  (* Phase 1: leaf lists (each proc fills its own leaf boxes). *)
  for b = part.lo.(levels) to part.hi.(levels) - 1 do
    mem.storei (leaf_slot g b) 0
  done;
  for i = 0 to g.n - 1 do
    let x = mem.loadf (body_slot g i 0) and y = mem.loadf (body_slot g i 1) in
    let b = box_index levels x y in
    mem.work (4 * flop_cycles);
    if b >= part.lo.(levels) && b < part.hi.(levels) then begin
      let cnt = mem.loadi (leaf_slot g b) in
      if cnt < leaf_cap then begin
        mem.storei (leaf_slot g b + 1 + cnt) i;
        mem.storei (leaf_slot g b) (cnt + 1)
      end
    end
  done;
  sync ();
  (* Phase 2: P2M on own leaves. *)
  for b = part.lo.(levels) to part.hi.(levels) - 1 do
    p2m mem g b
  done;
  sync ();
  (* Phase 3: M2M upward. *)
  for l = levels - 1 downto 2 do
    for b = part.lo.(l) to part.hi.(l) - 1 do
      m2m mem g l b
    done;
    sync ()
  done;
  (* Phase 4: downward M2L (+ L2L below the top transfer level). *)
  for l = 2 to levels do
    for b = part.lo.(l) to part.hi.(l) - 1 do
      let out = Array.make coeff_floats 0.0 in
      if l > 2 then begin
        let s = side l in
        let parent = ((b / s / 2 * (s / 2)) + (b mod s / 2)) in
        l2l mem g l ~parent ~child:b out
      end;
      List.iter (fun src -> m2l mem g l ~src ~dst:b out) (interaction_list l b);
      mem.write_vec (local_slot g l b) out
    done;
    sync ()
  done;
  (* Phase 5: evaluation on own leaves (L2P + P2P over neighbours). *)
  for b = part.lo.(levels) to part.hi.(levels) - 1 do
    let cx, cy = box_center levels b in
    let c = mem.read_vec (local_slot g levels b) coeff_floats in
    let cnt = mem.loadi (leaf_slot g b) in
    for m = 0 to cnt - 1 do
      let i = mem.loadi (leaf_slot g b + 1 + m) in
      let x = mem.loadf (body_slot g i 0) and y = mem.loadf (body_slot g i 1) in
      let pot = ref (eval_local c (x -. cx, y -. cy)) in
      mem.work (nterms * 4 * flop_cycles);
      List.iter
        (fun nb ->
          let ncnt = mem.loadi (leaf_slot g nb) in
          for mm = 0 to ncnt - 1 do
            let j = mem.loadi (leaf_slot g nb + 1 + mm) in
            if j <> i then begin
              let xj = mem.loadf (body_slot g j 0)
              and yj = mem.loadf (body_slot g j 1)
              and qj = mem.loadf (body_slot g j 2) in
              let dx = x -. xj and dy = y -. yj in
              pot :=
                !pot
                +. (qj *. 0.5 *. Float.log ((dx *. dx) +. (dy *. dy)));
              mem.work (8 * flop_cycles)
            end
          done)
        (neighbors levels b);
      mem.storef (body_slot g i 3) !pot
    done
  done;
  sync ()

let make_part np p =
  let lo = Array.make (levels + 1) 0 and hi = Array.make (levels + 1) 0 in
  for l = 2 to levels do
    lo.(l) <- p * nboxes l / np;
    hi.(l) <- (p + 1) * nboxes l / np
  done;
  { lo; hi; blo = 0; bhi = 0 }

let instance ?(vg = false) ?(scale = 1.0) () =
  let n = App.scaled scale 1024 in
  let g = make_geometry n in
  {
    App.name = "fmm";
    workload =
      Printf.sprintf "%d bodies, %d levels, p=%d%s" n levels p_order
        (if vg then ", vg 256B" else "");
    heap_bytes = (g.total_slots * 8) + (1 lsl 17);
    setup =
      (fun h ->
        let prng = Prng.create 2718 in
        let init = Array.make g.total_slots 0.0 in
        for i = 0 to n - 1 do
          init.(body_slot g i 0) <- Prng.float prng 1.0;
          init.(body_slot g i 1) <- Prng.float prng 1.0;
          init.(body_slot g i 2) <- Prng.float prng 1.0 +. 0.1
        done;
        (* Shared arrays: bodies; box expansions (vg hint); leaf lists. *)
        let bodies = Dsm.alloc_floats h (g.bodies_off + (n * body_slots)) in
        let boxes_floats = g.leaf_off - g.mpole_off.(2) in
        let boxes =
          Dsm.alloc_floats h
            ?block_size:(if vg then Some 256 else None)
            boxes_floats
        in
        let leaves = Dsm.alloc_floats h (g.total_slots - g.leaf_off) in
        let addr_of_slot s =
          if s < g.mpole_off.(2) then bodies + (8 * s)
          else if s < g.leaf_off then boxes + (8 * (s - g.mpole_off.(2)))
          else leaves + (8 * (s - g.leaf_off))
        in
        (* Home placement: box expansions and leaf lists at their owners. *)
        let np = (Dsm.config h).Config.nprocs in
        for p = 0 to np - 1 do
          let part = make_part np p in
          for l = 2 to levels do
            if part.hi.(l) > part.lo.(l) then begin
              Dsm.place h
                ~addr:(addr_of_slot (mpole_slot g l part.lo.(l)))
                ~len:((part.hi.(l) - part.lo.(l)) * coeff_floats * 8)
                ~proc:p;
              Dsm.place h
                ~addr:(addr_of_slot (local_slot g l part.lo.(l)))
                ~len:((part.hi.(l) - part.lo.(l)) * coeff_floats * 8)
                ~proc:p
            end
          done;
          if part.hi.(levels) > part.lo.(levels) then
            Dsm.place h
              ~addr:(addr_of_slot (leaf_slot g part.lo.(levels)))
              ~len:((part.hi.(levels) - part.lo.(levels)) * (1 + leaf_cap) * 8)
              ~proc:p
        done;
        for i = 0 to n - 1 do
          for k = 0 to body_slots - 1 do
            Dsm.poke_float h (addr_of_slot (body_slot g i k)) init.(body_slot g i k)
          done
        done;
        (* Sequential reference. *)
        let ref_mem =
          {
            loadf = (fun s -> init.(s));
            storef = (fun s v -> init.(s) <- v);
            loadi = (fun s -> int_of_float init.(s));
            storei = (fun s v -> init.(s) <- float_of_int v);
            read_vec = (fun s k -> Array.sub init s k);
            write_vec = (fun s v -> Array.blit v 0 init s (Array.length v));
            work = ignore;
          }
        in
        run_fmm ref_mem g (make_part 1 0) ~sync:ignore;
        (* Direct-sum accuracy check data. *)
        let direct = Array.make n 0.0 in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if j <> i then begin
              let dx = init.(body_slot g i 0) -. init.(body_slot g j 0)
              and dy = init.(body_slot g i 1) -. init.(body_slot g j 1) in
              direct.(i) <-
                direct.(i)
                +. (init.(body_slot g j 2) *. 0.5
                   *. Float.log ((dx *. dx) +. (dy *. dy)))
            end
          done
        done;
        let bar = Dsm.alloc_barrier h in
        let body ctx =
          let p = Dsm.pid ctx in
          let part = make_part (Dsm.nprocs ctx) p in
          let mem =
            {
              loadf = (fun s -> Dsm.load_float ctx (addr_of_slot s));
              storef = (fun s v -> Dsm.store_float ctx (addr_of_slot s) v);
              loadi = (fun s -> Dsm.load_int ctx (addr_of_slot s));
              storei = (fun s v -> Dsm.store_int ctx (addr_of_slot s) v);
              (* Expansion vectors live contiguously inside one
                 allocation region, so the whole transfer is one kernel
                 over [base0 + 8*i] (see Kernels); odd-sized vectors
                 (none today) would fall back to the loop. *)
              read_vec =
                (let rd = Kernels.vec_read ~k:coeff_floats in
                 fun s k ->
                   let a = Array.make k 0.0 in
                   Dsm.batch ctx
                     [ (addr_of_slot s, k * 8, Dsm.R) ]
                     (fun () ->
                       if k = coeff_floats then
                         Dsm.Prog.run ctx rd ~s:0.0 ~aux:a
                           ~base0:(addr_of_slot s) ~base1:0 ~base2:0
                       else
                         for i = 0 to k - 1 do
                           a.(i) <-
                             Dsm.Batch.load_float ctx (addr_of_slot (s + i))
                         done);
                   a);
              write_vec =
                (let wr = Kernels.vec_write ~k:coeff_floats in
                 fun s v ->
                   let k = Array.length v in
                   Dsm.batch ctx
                     [ (addr_of_slot s, k * 8, Dsm.W) ]
                     (fun () ->
                       if k = coeff_floats then
                         Dsm.Prog.run ctx wr ~s:0.0 ~aux:v
                           ~base0:(addr_of_slot s) ~base1:0 ~base2:0
                       else
                         Array.iteri
                           (fun i x ->
                             Dsm.Batch.store_float ctx (addr_of_slot (s + i)) x)
                           v));
              work = (fun c -> Dsm.compute ctx c);
            }
          in
          run_fmm mem g part ~sync:(fun () -> Dsm.barrier ctx bar)
        in
        let verify h =
          let worst = ref 0.0 and direct_err = ref 0.0 in
          for i = 0 to n - 1 do
            let got = Dsm.peek_float h (addr_of_slot (body_slot g i 3)) in
            let want = init.(body_slot g i 3) in
            let scale = Float.max 1.0 (Float.abs want) in
            worst := Float.max !worst (Float.abs (got -. want) /. scale);
            direct_err :=
              Float.max !direct_err
                (Float.abs (got -. direct.(i))
                /. Float.max 1.0 (Float.abs direct.(i)))
          done;
          let detail =
            Printf.sprintf "vs ref %.2e; vs direct %.2e" !worst !direct_err
          in
          if !worst < 1e-8 && !direct_err < 0.2 then App.pass ~detail
          else App.fail ~detail
        in
        (body, verify));
  }
