module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Prng = Shasta_util.Prng

let omega = 1.5
let flop_cycles = 6
let cell_cycles = 10 * flop_cycles

let reference_sweeps grid rhs n iters =
  let at i j = (i * (n + 2)) + j in
  for _t = 1 to iters do
    List.iter
      (fun parity ->
        for i = 1 to n do
          for j = 1 to n do
            if (i + j) land 1 = parity then begin
              let v =
                0.25
                *. (grid.(at (i - 1) j)
                   +. grid.(at (i + 1) j)
                   +. grid.(at i (j - 1))
                   +. grid.(at i (j + 1))
                   -. rhs.(at i j))
              in
              grid.(at i j) <- ((1.0 -. omega) *. grid.(at i j)) +. (omega *. v)
            end
          done
        done)
      [ 0; 1 ]
  done

let instance ?(vg = false) ?(scale = 1.0) () =
  ignore vg;
  (* Ocean has no Table-2 granularity change; rows are already
     line-contiguous. *)
  let n = App.scaled scale 256 in
  let iters = 8 in
  let dim = n + 2 in
  {
    App.name = "ocean";
    workload = Printf.sprintf "%dx%d ocean, %d red-black SOR sweeps" dim dim iters;
    heap_bytes = (2 * dim * dim * 8) + (1 lsl 16);
    setup =
      (fun h ->
        let np = (Dsm.config h).Config.nprocs in
        let grid = Dsm.alloc_floats h (dim * dim) in
        let rhs = Dsm.alloc_floats h (dim * dim) in
        let at i j = grid + (8 * ((i * dim) + j)) in
        let rhs_at i j = rhs + (8 * ((i * dim) + j)) in
        (* Row partition homed at its owner. *)
        let row_lo p = 1 + (p * n / np) in
        let row_hi p = (p + 1) * n / np in
        for p = 0 to np - 1 do
          if row_hi p >= row_lo p then begin
            Dsm.place h ~addr:(at (row_lo p) 0)
              ~len:((row_hi p - row_lo p + 1) * dim * 8)
              ~proc:p;
            Dsm.place h
              ~addr:(rhs_at (row_lo p) 0)
              ~len:((row_hi p - row_lo p + 1) * dim * 8)
              ~proc:p
          end
        done;
        let prng = Prng.create 77 in
        let reference = Array.make (dim * dim) 0.0 in
        let rhs_ref = Array.make (dim * dim) 0.0 in
        for i = 0 to dim - 1 do
          for j = 0 to dim - 1 do
            let v =
              if i = 0 || j = 0 || i = dim - 1 || j = dim - 1 then
                Float.sin (float_of_int (i + j))
              else Prng.float prng 1.0
            in
            reference.((i * dim) + j) <- v;
            Dsm.poke_float h (at i j) v;
            let f = 0.01 *. Float.sin (float_of_int ((3 * i) + j)) in
            rhs_ref.((i * dim) + j) <- f;
            Dsm.poke_float h (rhs_at i j) f
          done
        done;
        reference_sweeps reference rhs_ref n iters;
        let bar = Dsm.alloc_barrier h in
        let body ctx =
          let p = Dsm.pid ctx in
          let lo = row_lo p and hi = row_hi p in
          let row_bytes = dim * 8 in
          (* The row sweep as kernels, one per column parity (see
             Kernels): the stencil as a raw in-batch kernel, the
             coefficient prefetch as a checked kernel — the coefficient
             grid is read through ordinary (unbatched) checked loads,
             like the multiple right-hand-side grids of the real
             Ocean. *)
          let row_p =
            [|
              Kernels.ocean_row ~n ~jstart:2 ~omega ~cell_cycles;
              Kernels.ocean_row ~n ~jstart:1 ~omega ~cell_cycles;
            |]
          in
          let rhs_p =
            [| Kernels.ocean_rhs_row ~n ~jstart:2;
               Kernels.ocean_rhs_row ~n ~jstart:1 |]
          in
          for _t = 1 to iters do
            List.iter
              (fun parity ->
                for i = lo to hi do
                  (* Columns j with (i + j) land 1 = parity; odd js
                     (jstart = 1) exactly when (i + 1) land 1 = parity. *)
                  let sel = if (i + 1) land 1 = parity then 1 else 0 in
                  let frow = Array.make (dim + 1) 0.0 in
                  Dsm.Prog.run ctx rhs_p.(sel) ~s:0.0 ~aux:frow
                    ~base0:(rhs_at i 0) ~base1:0 ~base2:0;
                  Dsm.batch ctx
                    [
                      (at (i - 1) 0, row_bytes, Dsm.R);
                      (at (i + 1) 0, row_bytes, Dsm.R);
                      (at i 0, row_bytes, Dsm.W);
                    ]
                    (fun () ->
                      Dsm.Prog.run ctx row_p.(sel) ~s:0.0 ~aux:frow
                        ~base0:(at (i - 1) 0)
                        ~base1:(at (i + 1) 0)
                        ~base2:(at i 0))
                done;
                Dsm.barrier ctx bar)
              [ 0; 1 ]
          done
        in
        let verify h =
          let worst = ref 0.0 in
          for i = 0 to dim - 1 do
            for j = 0 to dim - 1 do
              let got = Dsm.peek_float h (at i j) in
              let want = reference.((i * dim) + j) in
              worst := Float.max !worst (Float.abs (got -. want))
            done
          done;
          if !worst < 1e-9 then
            App.pass ~detail:(Printf.sprintf "max abs err %.2e" !worst)
          else App.fail ~detail:(Printf.sprintf "max abs err %.2e" !worst)
        in
        (body, verify));
  }
