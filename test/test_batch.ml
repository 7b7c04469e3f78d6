(* Batched-access semantics (§3.4.4): combined checks, multi-block
   ranges, concurrent batch writers on one block, and the deferred
   invalid-flag machinery under contention. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module Stats = Shasta_core.Stats

let smp () = Dsm.create (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ())

let test_batch_basic () =
  let h = smp () in
  let a = Dsm.alloc h ~block_size:64 128 in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then begin
        Dsm.batch ctx
          [ (a, 128, Dsm.W) ]
          (fun () ->
            for i = 0 to 15 do
              Dsm.Batch.store_float ctx (a + (8 * i)) (float_of_int i)
            done);
        Dsm.batch ctx
          [ (a, 128, Dsm.R) ]
          (fun () ->
            for i = 0 to 15 do
              Alcotest.(check (float 0.0)) "read back" (float_of_int i)
                (Dsm.Batch.load_float ctx (a + (8 * i)))
            done)
      end)

let test_batch_spanning_blocks () =
  let h = smp () in
  (* A 72-byte record crossing a 64-byte block boundary. *)
  let a = Dsm.alloc h ~block_size:64 256 in
  let rec_base = a + 40 in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 1 then
        Dsm.batch ctx
          [ (rec_base, 72, Dsm.W) ]
          (fun () ->
            for k = 0 to 8 do
              Dsm.Batch.store_float ctx (rec_base + (8 * k)) (float_of_int (100 + k))
            done));
  for k = 0 to 8 do
    Alcotest.(check (float 0.0)) "spanning record" (float_of_int (100 + k))
      (Dsm.peek_float h (rec_base + (8 * k)))
  done

let test_concurrent_batch_writers_one_block () =
  (* Two processors on different nodes batch-write disjoint halves of
     the same 2048-byte block repeatedly; every write must survive the
     replay/merge machinery. *)
  let h = smp () in
  let a = Dsm.alloc h ~block_size:2048 2048 in
  let rounds = 12 in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p = 0 || p = 4 then begin
        let base = if p = 0 then a else a + 1024 in
        for r = 1 to rounds do
          Dsm.batch ctx
            [ (base, 1024, Dsm.W) ]
            (fun () ->
              for i = 0 to 127 do
                Dsm.Batch.store_float ctx (base + (8 * i))
                  (float_of_int ((r * 1000) + i))
              done);
          Dsm.compute ctx 100
        done
      end);
  for i = 0 to 127 do
    Alcotest.(check (float 0.0)) "half A final" (float_of_int ((rounds * 1000) + i))
      (Dsm.peek_float h (a + (8 * i)));
    Alcotest.(check (float 0.0)) "half B final" (float_of_int ((rounds * 1000) + i))
      (Dsm.peek_float h (a + 1024 + (8 * i)))
  done

let test_batch_reader_vs_writer () =
  (* Ocean-style parity split within one block: the writer updates even
     slots while the reader consumes odd slots — element-race-free but
     block-contended. Reads must never see the flag or torn values. *)
  let h = smp () in
  let a = Dsm.alloc h ~block_size:512 512 in
  for i = 0 to 63 do
    Dsm.poke_float h (a + (8 * i)) 1.0
  done;
  let rounds = 15 in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p = 0 then
        for r = 1 to rounds do
          Dsm.batch ctx
            [ (a, 512, Dsm.W) ]
            (fun () ->
              for i = 0 to 31 do
                Dsm.Batch.store_float ctx (a + (16 * i)) (float_of_int r)
              done);
          Dsm.compute ctx 300
        done
      else if p = 4 then
        for _ = 1 to rounds do
          Dsm.batch ctx
            [ (a, 512, Dsm.R) ]
            (fun () ->
              for i = 0 to 31 do
                let v = Dsm.Batch.load_float ctx (a + (16 * i) + 8) in
                Alcotest.(check (float 0.0)) "odd slots stable" 1.0 v
              done);
          Dsm.compute ctx 300
        done);
  Alcotest.(check (float 0.0)) "writer's last round"
    (float_of_int rounds)
    (Dsm.peek_float h a)

let test_no_deferred_flags_after_quiescence () =
  let h = smp () in
  let a = Dsm.alloc h ~block_size:1024 4096 in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      for r = 0 to 9 do
        Dsm.batch ctx
          [ (a + (1024 * (p mod 4)), 512, Dsm.W) ]
          (fun () ->
            for i = 0 to 63 do
              Dsm.Batch.store_float ctx
                (a + (1024 * (p mod 4)) + (8 * i))
                (float_of_int r)
            done)
      done);
  let m = Dsm.machine h in
  Array.iter
    (fun ns ->
      Alcotest.(check int) "no deferred flags" 0
        (Hashtbl.length ns.Machine.deferred_flags);
      Alcotest.(check int) "no batch lines" 0 (Hashtbl.length ns.Machine.batch_lines);
      Alcotest.(check int) "no registered wranges" 0
        (Hashtbl.length ns.Machine.batch_wranges))
    m.Machine.nodes

let test_batch_counts_checks () =
  let h = smp () in
  let a = Dsm.alloc h ~block_size:64 256 in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then
        Dsm.batch ctx [ (a, 256, Dsm.R) ] (fun () -> ()));
  Alcotest.(check int) "one check per covered line" 4
    (Dsm.aggregate_stats h).Stats.checks

(* Kernel parity: running the [Dsm.Prog.fms_row] kernel must be
   indistinguishable in virtual time from the same loop written inline —
   same memory, same finish cycles, same statistics, and (with an
   observer installed) the same per-op hook stream. *)
let daxpy_run ~use_prog ~record =
  let h = smp () in
  let n = 16 in
  let s = 2.0 in
  let dst = Dsm.alloc_floats h ~block_size:128 n in
  let src = Dsm.alloc_floats h ~block_size:128 n in
  for i = 0 to n - 1 do
    Dsm.poke_float h (dst + (8 * i)) (float_of_int (10 + i));
    Dsm.poke_float h (src + (8 * i)) (float_of_int i)
  done;
  let events = ref [] in
  if record then
    Dsm.add_observer h
      {
        Shasta_core.Observer.nil with
        on_load =
          (fun ~proc ~addr ~len ~now ->
            events := (`L, proc, addr, len, now) :: !events);
        on_store =
          (fun ~proc ~addr ~len ~now ->
            events := (`S, proc, addr, len, now) :: !events);
      };
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then
        let prog = Dsm.Prog.fms_row ~len:n ~cost:6 in
        Dsm.batch ctx
          [ (dst, n * 8, Dsm.W); (src, n * 8, Dsm.R) ]
          (fun () ->
            if use_prog then
              Dsm.Prog.run ctx prog ~s ~aux:Dsm.Prog.no_aux ~base0:dst
                ~base1:src ~base2:0
            else
              for c = 0 to n - 1 do
                let v = Dsm.Batch.load_float ctx (src + (8 * c)) in
                let d = Dsm.Batch.load_float ctx (dst + (8 * c)) in
                Dsm.Batch.store_float ctx (dst + (8 * c)) (d -. (s *. v));
                Dsm.compute ctx 6
              done));
  let vals = Array.init n (fun i -> Dsm.peek_float h (dst + (8 * i))) in
  (vals, Dsm.parallel_cycles h, Dsm.aggregate_stats h, List.rev !events)

let check_parity ~record () =
  let pv, pc, ps, pe = daxpy_run ~use_prog:true ~record in
  let cv, cc, cs, ce = daxpy_run ~use_prog:false ~record in
  Alcotest.(check (array (float 0.0))) "values" cv pv;
  Alcotest.(check int) "finish cycles" cc pc;
  (* [prog_accesses] is the one stat allowed to differ: it records which
     dispatch mechanism issued the access, which is exactly what the two
     runs vary. *)
  Alcotest.(check int) "prog accesses counted" (16 * 3) ps.Stats.prog_accesses;
  Alcotest.(check int) "closure run has none" 0 cs.Stats.prog_accesses;
  let norm st = { st with Stats.prog_accesses = 0 } in
  Alcotest.(check bool) "stats" true (norm cs = norm ps);
  Alcotest.(check bool) "hook streams" true (ce = pe);
  if record then
    Alcotest.(check int) "per-op hooks fired" (16 * 3) (List.length pe);
  (* Sanity: the daxpy actually ran — dst_i = (10+i) - 2*i. *)
  Alcotest.(check (float 0.0)) "kernel result" (10.0 -. 5.0) pv.(5)

let test_prog_parity_unobserved () = check_parity ~record:false ()
let test_prog_parity_observed () = check_parity ~record:true ()

let test_prog_observed_matches_unobserved_cycles () =
  (* The fused unobserved charge must land on the same finish clock as
     the observed per-op charges. *)
  let _, cyc_obs, _, _ = daxpy_run ~use_prog:true ~record:true in
  let _, cyc_un, _, _ = daxpy_run ~use_prog:true ~record:false in
  Alcotest.(check int) "same finish cycles" cyc_un cyc_obs

(* Batch range check (§3.4.4): with [sanitize > 0] the reference path
   holds every raw access to the ranges its batch declared. Processor 3
   runs one bad body; the sanitizer's observer keeps it off the fused
   path. With sanitize off, the same body runs unchecked on the fused
   path. *)
let range_run ~sanitize body =
  let h =
    Dsm.create
      (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ~sanitize
         ~fastpath:true ())
  in
  let a = Dsm.alloc h ~block_size:64 128 in
  if sanitize > 0 then ignore (Shasta_check.Sanitizer.attach (Dsm.machine h));
  Dsm.run h (fun ctx -> if Dsm.pid ctx = 3 then body ctx a);
  (h, a)

let load_outside ctx a =
  Dsm.batch ctx [ (a, 64, Dsm.R) ] (fun () ->
      ignore (Dsm.Batch.load_float ctx (a + 64) : float))

let store_into_r ctx a =
  Dsm.batch ctx [ (a, 64, Dsm.R) ] (fun () -> Dsm.Batch.store_int ctx (a + 8) 1)

let misaligned ctx a =
  Dsm.batch ctx [ (a, 64, Dsm.W) ] (fun () ->
      ignore (Dsm.Batch.load_int ctx (a + 4) : int))

let contains s sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
  in
  scan 0

let check_rejected ~name ~off body () =
  let seen = ref (-1) in
  match range_run ~sanitize:1 (fun ctx a -> seen := a; body ctx a) with
  | _ -> Alcotest.failf "%s: no violation raised" name
  | exception Shasta_core.Inspect.Violation [ v ] ->
    Alcotest.(check bool) (name ^ ": names proc 3") true
      (v.Shasta_core.Inspect.subject = Shasta_core.Inspect.Proc 3);
    Alcotest.(check bool) (name ^ ": names the address") true
      (contains v.Shasta_core.Inspect.what (Printf.sprintf "%#x" (!seen + off)))

let test_unchecked_on_fused_path () =
  List.iter
    (fun body ->
      let h, _ = range_run ~sanitize:0 body in
      Alcotest.(check int) "the raw access ran" 1
        (Dsm.proc_stats h).(3).Stats.accesses)
    [ load_outside; store_into_r; misaligned ]

let () =
  Alcotest.run "batch"
    [
      ( "semantics",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_batch_basic;
          Alcotest.test_case "block-spanning range" `Quick
            test_batch_spanning_blocks;
          Alcotest.test_case "check accounting" `Quick test_batch_counts_checks;
        ] );
      ( "contention",
        [
          Alcotest.test_case "concurrent writers one block" `Quick
            test_concurrent_batch_writers_one_block;
          Alcotest.test_case "reader vs writer parity" `Quick
            test_batch_reader_vs_writer;
          Alcotest.test_case "clean after quiescence" `Quick
            test_no_deferred_flags_after_quiescence;
        ] );
      ( "access programs",
        [
          Alcotest.test_case "prog parity (unobserved)" `Quick
            test_prog_parity_unobserved;
          Alcotest.test_case "prog parity (observed)" `Quick
            test_prog_parity_observed;
          Alcotest.test_case "observed/unobserved same cycles" `Quick
            test_prog_observed_matches_unobserved_cycles;
        ] );
      ( "range check",
        [
          Alcotest.test_case "load outside the declared ranges" `Quick
            (check_rejected ~name:"outside" ~off:64 load_outside);
          Alcotest.test_case "store into a range declared R" `Quick
            (check_rejected ~name:"store into R" ~off:8 store_into_r);
          Alcotest.test_case "misaligned raw access" `Quick
            (check_rejected ~name:"misaligned" ~off:4 misaligned);
          Alcotest.test_case "sanitize off: unchecked on the fused path" `Quick
            test_unchecked_on_fused_path;
        ] );
    ]
