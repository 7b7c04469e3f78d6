module Dsm = Shasta_core.Dsm

let flop_cycles = 6

let proc_grid np =
  let r = ref 1 in
  for d = 1 to np do
    if np mod d = 0 && d * d <= np then r := d
  done;
  (!r, np / !r)

let owner ~pr ~pc bi bj = ((bi mod pr) * pc) + (bj mod pc)

let generate prng n =
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.((i * n) + j) <- Shasta_util.Prng.float prng 1.0
    done;
    a.((i * n) + i) <- a.((i * n) + i) +. float_of_int n
  done;
  a

let reference_lu a n =
  for k = 0 to n - 1 do
    let akk = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      a.((i * n) + k) <- a.((i * n) + k) /. akk
    done;
    for i = k + 1 to n - 1 do
      let lik = a.((i * n) + k) in
      for j = k + 1 to n - 1 do
        a.((i * n) + j) <- a.((i * n) + j) -. (lik *. a.((k * n) + j))
      done
    done
  done

type layout = { addr : int -> int -> int }

let block_ranges layout ~bsz ~bi ~bj access =
  List.init bsz (fun r ->
      (layout.addr ((bi * bsz) + r) (bj * bsz), bsz * 8, access))

(* In-place LU of diagonal block k. *)
let factor_diag ctx layout ~bsz ~k =
  let at i j = layout.addr ((k * bsz) + i) ((k * bsz) + j) in
  Dsm.batch ctx (block_ranges layout ~bsz ~bi:k ~bj:k Dsm.W) (fun () ->
      for kk = 0 to bsz - 1 do
        let akk = Dsm.Batch.load_float ctx (at kk kk) in
        for i = kk + 1 to bsz - 1 do
          let v = Dsm.Batch.load_float ctx (at i kk) /. akk in
          Dsm.Batch.store_float ctx (at i kk) v;
          Dsm.compute ctx flop_cycles;
          for j = kk + 1 to bsz - 1 do
            let w =
              Dsm.Batch.load_float ctx (at i j)
              -. (v *. Dsm.Batch.load_float ctx (at kk j))
            in
            Dsm.Batch.store_float ctx (at i j) w;
            Dsm.compute ctx flop_cycles
          done
        done
      done)

(* A(i,k) := A(i,k) * U(k,k)^-1, column-by-column forward substitution. *)
let div_column_block ctx layout ~bsz ~k ~i =
  let diag r c = layout.addr ((k * bsz) + r) ((k * bsz) + c) in
  let tgt r c = layout.addr ((i * bsz) + r) ((k * bsz) + c) in
  Dsm.batch ctx
    (block_ranges layout ~bsz ~bi:k ~bj:k Dsm.R
    @ block_ranges layout ~bsz ~bi:i ~bj:k Dsm.W)
    (fun () ->
      for j = 0 to bsz - 1 do
        for r = 0 to bsz - 1 do
          let acc = ref (Dsm.Batch.load_float ctx (tgt r j)) in
          for m = 0 to j - 1 do
            acc :=
              !acc
              -. (Dsm.Batch.load_float ctx (tgt r m)
                 *. Dsm.Batch.load_float ctx (diag m j));
            Dsm.compute ctx flop_cycles
          done;
          Dsm.Batch.store_float ctx (tgt r j)
            (!acc /. Dsm.Batch.load_float ctx (diag j j));
          Dsm.compute ctx flop_cycles
        done
      done)

(* A(k,j) := L(k,k)^-1 * A(k,j), row-by-row forward substitution with a
   unit-diagonal L. *)
let div_row_block ctx layout ~bsz ~k ~j =
  let diag r c = layout.addr ((k * bsz) + r) ((k * bsz) + c) in
  let tgt r c = layout.addr ((k * bsz) + r) ((j * bsz) + c) in
  let prog = Dsm.Prog.fms_row ~len:bsz ~cost:flop_cycles in
  Dsm.batch ctx
    (block_ranges layout ~bsz ~bi:k ~bj:k Dsm.R
    @ block_ranges layout ~bsz ~bi:k ~bj:j Dsm.W)
    (fun () ->
      for r = 1 to bsz - 1 do
        for m = 0 to r - 1 do
          let lrm = Dsm.Batch.load_float ctx (diag r m) in
          Dsm.Prog.run ctx prog ~s:lrm ~aux:Dsm.Prog.no_aux ~base0:(tgt r 0)
            ~base1:(tgt m 0) ~base2:0
        done
      done)

(* A(i,j) -= A(i,k) * A(k,j), batched per (r, m) row pair as the real
   Shasta batches the straight-line daxpy inner loop — one combined
   check per destination/source row, with the multiplier loaded through
   an ordinary (checked) float load. The row is the {!Dsm.Prog.fms_row}
   kernel. *)
let update_block ctx layout ~bsz ~k ~i ~j =
  let a r m = layout.addr ((i * bsz) + r) ((k * bsz) + m) in
  let b m c = layout.addr ((k * bsz) + m) ((j * bsz) + c) in
  let d r c = layout.addr ((i * bsz) + r) ((j * bsz) + c) in
  let prog = Dsm.Prog.fms_row ~len:bsz ~cost:(2 * flop_cycles) in
  for r = 0 to bsz - 1 do
    for m = 0 to bsz - 1 do
      let arm = Dsm.load_float ctx (a r m) in
      Dsm.batch ctx
        [ (d r 0, bsz * 8, Dsm.W); (b m 0, bsz * 8, Dsm.R) ]
        (fun () ->
          Dsm.Prog.run ctx prog ~s:arm ~aux:Dsm.Prog.no_aux ~base0:(d r 0)
            ~base1:(b m 0) ~base2:0)
    done
  done

let verify_against h layout ~n reference =
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let got = Dsm.peek_float h (layout.addr i j) in
      let want = reference.((i * n) + j) in
      let scale = Float.max 1.0 (Float.abs want) in
      worst := Float.max !worst (Float.abs (got -. want) /. scale)
    done
  done;
  if !worst < 1e-8 then
    App.pass ~detail:(Printf.sprintf "max rel err %.2e" !worst)
  else App.fail ~detail:(Printf.sprintf "max rel err %.2e" !worst)
