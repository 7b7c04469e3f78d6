module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module W = Water_common

let box = 6.0
let cutoff = 2.2
let dt = 0.004
let steps = 2
let mols_per_lock = 8

(* Cyclic half-range pair rule: molecule [i] interacts with the next
   n/2 molecules (one fewer for even n when i >= n/2), so each pair is
   evaluated exactly once. *)
let half_range n i = if n land 1 = 0 && 2 * i >= n then (n / 2) - 1 else n / 2

let reference_step mols n =
  let f = W.fields in
  for i = 0 to n - 1 do
    for k = 1 to half_range n i do
      let j = (i + k) mod n in
      let mi = { W.px = mols.(i * f); py = mols.((i * f) + 1); pz = mols.((i * f) + 2) } in
      let mj = { W.px = mols.(j * f); py = mols.((j * f) + 1); pz = mols.((j * f) + 2) } in
      match W.pair_force ~box ~cutoff mi mj with
      | None -> ()
      | Some (fx, fy, fz) ->
        mols.((i * f) + 6) <- mols.((i * f) + 6) +. fx;
        mols.((i * f) + 7) <- mols.((i * f) + 7) +. fy;
        mols.((i * f) + 8) <- mols.((i * f) + 8) +. fz;
        mols.((j * f) + 6) <- mols.((j * f) + 6) -. fx;
        mols.((j * f) + 7) <- mols.((j * f) + 7) -. fy;
        mols.((j * f) + 8) <- mols.((j * f) + 8) -. fz
    done
  done;
  W.integrate ~dt ~box mols n

let instance ?(vg = false) ?(scale = 1.0) () =
  let n = App.scaled scale 512 in
  {
    App.name = "water-nsq";
    workload =
      Printf.sprintf "%d molecules, %d steps, O(n^2) pairs%s" n steps
        (if vg then ", vg 2048B" else "");
    heap_bytes = (n * W.mol_bytes) + (1 lsl 16);
    setup =
      (fun h ->
        let prng = Shasta_util.Prng.create 99 in
        let reference = W.init_molecules prng ~n ~box in
        let mols =
          Dsm.alloc h ?block_size:(if vg then Some 2048 else None)
            (n * W.mol_bytes)
        in
        let fld i k = mols + (W.mol_bytes * i) + (8 * k) in
        for i = 0 to n - 1 do
          for k = 0 to W.fields - 1 do
            Dsm.poke_float h (fld i k) reference.((i * W.fields) + k)
          done
        done;
        let nlocks = (n + mols_per_lock - 1) / mols_per_lock in
        let locks = Array.init nlocks (fun _ -> Dsm.alloc_lock h) in
        let bar = Dsm.alloc_barrier h in
        let np = (Dsm.config h).Config.nprocs in
        let body ctx =
          let p = Dsm.pid ctx in
          let lo = p * n / np and hi = (p + 1) * n / np in
          let local = Array.make (n * 3) 0.0 in
          let integ =
            Kernels.water_integrate ~dt ~box ~flop_cycles:W.flop_cycles
          in
          for _s = 1 to steps do
            Array.fill local 0 (n * 3) 0.0;
            (* Pair evaluation: positions read via single float loads
               (pointer-chasing through molecule records). *)
            let pos i =
              {
                W.px = Dsm.load_float ctx (fld i 0);
                py = Dsm.load_float ctx (fld i 1);
                pz = Dsm.load_float ctx (fld i 2);
              }
            in
            for i = lo to hi - 1 do
              let mi = pos i in
              for k = 1 to half_range n i do
                let j = (i + k) mod n in
                let mj = pos j in
                Dsm.compute ctx W.pair_flops;
                match W.pair_force ~box ~cutoff mi mj with
                | None -> ()
                | Some (fx, fy, fz) ->
                  local.(i * 3) <- local.(i * 3) +. fx;
                  local.((i * 3) + 1) <- local.((i * 3) + 1) +. fy;
                  local.((i * 3) + 2) <- local.((i * 3) + 2) +. fz;
                  local.(j * 3) <- local.(j * 3) -. fx;
                  local.((j * 3) + 1) <- local.((j * 3) + 1) -. fy;
                  local.((j * 3) + 2) <- local.((j * 3) + 2) -. fz
              done
            done;
            (* Fold local force contributions into the shared records
               under per-molecule-group locks — migratory data. *)
            for g = 0 to nlocks - 1 do
              let glo = g * mols_per_lock and ghi = min n ((g + 1) * mols_per_lock) in
              let touched = ref false in
              for i = glo to ghi - 1 do
                if
                  local.(i * 3) <> 0.0
                  || local.((i * 3) + 1) <> 0.0
                  || local.((i * 3) + 2) <> 0.0
                then touched := true
              done;
              if !touched then begin
                Dsm.lock ctx locks.(g);
                for i = glo to ghi - 1 do
                  for d = 0 to 2 do
                    if local.((i * 3) + d) <> 0.0 then begin
                      let cur = Dsm.load_float ctx (fld i (6 + d)) in
                      Dsm.store_float ctx (fld i (6 + d))
                        (cur +. local.((i * 3) + d));
                      Dsm.compute ctx W.flop_cycles
                    end
                  done
                done;
                Dsm.unlock ctx locks.(g)
              end
            done;
            Dsm.barrier ctx bar;
            (* Integrate own molecules (the velocity/position update
               as a kernel; see Kernels). *)
            for i = lo to hi - 1 do
              Dsm.batch ctx
                [ (fld i 0, W.mol_bytes, Dsm.W) ]
                (fun () ->
                  Dsm.Prog.run ctx integ ~s:0.0 ~aux:Dsm.Prog.no_aux
                    ~base0:(fld i 0) ~base1:0 ~base2:0)
            done;
            Dsm.barrier ctx bar
          done
        in
        for _s = 1 to steps do
          reference_step reference n
        done;
        let verify h =
          let worst = ref 0.0 in
          for i = 0 to n - 1 do
            for d = 0 to 2 do
              let got = Dsm.peek_float h (fld i d) in
              let want = reference.((i * W.fields) + d) in
              worst := Float.max !worst (Float.abs (got -. want))
            done
          done;
          if !worst < 1e-6 then
            App.pass ~detail:(Printf.sprintf "max pos err %.2e" !worst)
          else App.fail ~detail:(Printf.sprintf "max pos err %.2e" !worst)
        in
        (body, verify));
  }
