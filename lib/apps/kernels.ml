(* The app kernels' hot loops as {!Shasta_core.Dsm.Prog} closures.

   Each kernel issues the memory ops of the loop body it stands for in
   the same order, and computes the same floating-point expressions, so
   the values and the virtual time are those of the plain loop. Loads
   are sequenced with explicit [let]s. *)

module Dsm = Shasta_core.Dsm

let wrap q box = if q < 0.0 then q +. box else if q >= box then q -. box else q

(* Water integrate (both water-nsq and water-sp), one molecule per run:
   for d in 0..2, advance velocity by the accumulated force, advance the
   wrapped position, clear the force. Raw ops; run inside the molecule's
   batch with [base0] = the molecule's first field. *)
let water_integrate ~dt ~box ~flop_cycles : Dsm.Prog.t =
 fun ctx ~s:_ ~aux:_ ~base0:m ~base1:_ ~base2:_ ->
  for d = 0 to 2 do
    let f = Dsm.Batch.load_float ctx (m + (8 * (6 + d))) in
    let v = Dsm.Batch.load_float ctx (m + (8 * (3 + d))) +. (f *. dt) in
    Dsm.Batch.store_float ctx (m + (8 * (3 + d))) v;
    let x = Dsm.Batch.load_float ctx (m + (8 * d)) +. (v *. dt) in
    Dsm.Batch.store_float ctx (m + (8 * d)) (wrap x box);
    Dsm.Batch.store_float ctx (m + (8 * (6 + d))) 0.0;
    Dsm.compute ctx (4 * flop_cycles)
  done

(* Barnes integrate: the same velocity/position update without the
   periodic wrap, over checked accesses (the real Barnes does not batch
   its integrate phase). [base0] = the body's first slot address. *)
let barnes_integrate ~dt ~flop_cycles : Dsm.Prog.t =
 fun ctx ~s:_ ~aux:_ ~base0:b ~base1:_ ~base2:_ ->
  for d = 0 to 2 do
    let f = Dsm.load_float ctx (b + (8 * (6 + d))) in
    let v = Dsm.load_float ctx (b + (8 * (3 + d))) +. (f *. dt) in
    Dsm.store_float ctx (b + (8 * (3 + d))) v;
    let x = Dsm.load_float ctx (b + (8 * d)) +. (v *. dt) in
    Dsm.store_float ctx (b + (8 * d)) x;
    Dsm.compute ctx (4 * flop_cycles)
  done

(* Ocean red-black SOR row: one batched stencil update per matching-
   parity column. [jstart] (1 or 2) selects the column parity; bases:
   [base0] = row i-1, [base1] = row i+1, [base2] = row i; [aux] = the
   pre-read right-hand-side row. *)
let ocean_row ~n ~jstart ~omega ~cell_cycles : Dsm.Prog.t =
  let keep = 1.0 -. omega in
  fun ctx ~s:_ ~aux ~base0 ~base1 ~base2 ->
    let j = ref jstart in
    while !j <= n do
      let jj = !j in
      (* The loop this stands for summed the four neighbours in one
         expression, which OCaml evaluates right to left. *)
      let right = Dsm.Batch.load_float ctx (base2 + (8 * (jj + 1))) in
      let left = Dsm.Batch.load_float ctx (base2 + (8 * (jj - 1))) in
      let below = Dsm.Batch.load_float ctx (base1 + (8 * jj)) in
      let above = Dsm.Batch.load_float ctx (base0 + (8 * jj)) in
      let v = (above +. below +. left +. right -. aux.(jj)) *. 0.25 in
      let old = Dsm.Batch.load_float ctx (base2 + (8 * jj)) in
      Dsm.Batch.store_float ctx (base2 + (8 * jj))
        ((old *. keep) +. (v *. omega));
      Dsm.compute ctx cell_cycles;
      j := jj + 2
    done

(* Ocean right-hand-side row prefetch: checked loads of the matching-
   parity columns into [aux] (the host-side coefficient row). [base0] =
   the rhs row's first cell. *)
let ocean_rhs_row ~n ~jstart : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  let j = ref jstart in
  while !j <= n do
    aux.(!j) <- Dsm.load_float ctx (base0 + (8 * !j));
    j := !j + 2
  done

(* FMM expansion-vector transfers: [k] raw loads into [aux], or [k] raw
   stores out of it. [base0] = the vector's first slot address. *)
let vec_read ~k : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  for i = 0 to k - 1 do
    aux.(i) <- Dsm.Batch.load_float ctx (base0 + (8 * i))
  done

let vec_write ~k : Dsm.Prog.t =
 fun ctx ~s:_ ~aux ~base0 ~base1:_ ~base2:_ ->
  for i = 0 to k - 1 do
    Dsm.Batch.store_float ctx (base0 + (8 * i)) aux.(i)
  done
