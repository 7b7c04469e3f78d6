(* Directed protocol-level scenarios on small machines, with directory
   and statistics introspection. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module Stats = Shasta_core.Stats
module Msg = Shasta_core.Msg
module Directory = Shasta_core.Directory
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Layout = Shasta_mem.Layout
module Bitset = Shasta_util.Bitset

let base_machine ?(nprocs = 8) () =
  Dsm.create (Config.create ~variant:Config.Base ~nprocs ())

let miss_count h cls =
  Stats.miss_count (Dsm.aggregate_stats h) cls

let test_two_hop_read () =
  let h = base_machine () in
  (* Block homed (and initially owned) at proc 4; proc 0 reads it. *)
  let a = Dsm.alloc h ~block_size:64 ~home:4 64 in
  Dsm.poke_float h a 7.5;
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then
        Alcotest.(check (float 0.0)) "value" 7.5 (Dsm.load_float ctx a));
  Alcotest.(check int) "one 2-hop read miss" 1
    (miss_count h { Stats.kind = Msg.Read; three_hop = false });
  Alcotest.(check int) "no 3-hop" 0
    (miss_count h { Stats.kind = Msg.Read; three_hop = true });
  (* Directory: proc 0 recorded as sharer, home still owner. *)
  let m = Dsm.machine h in
  match Directory.find m.Machine.dirs.(4) ~block:a with
  | None -> Alcotest.fail "no directory entry"
  | Some e ->
    Alcotest.(check bool) "proc 0 is sharer" true (Bitset.mem 0 e.Directory.sharers);
    Alcotest.(check int) "owner unchanged" 4 e.Directory.owner;
    Alcotest.(check bool) "not busy" false e.Directory.busy

let test_three_hop_read () =
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 ~home:4 64 in
  let b = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      (* proc 6 takes ownership, then proc 0 reads: home forwards. *)
      if Dsm.pid ctx = 6 then Dsm.store_float ctx a 3.0;
      Dsm.barrier ctx b;
      if Dsm.pid ctx = 0 then
        Alcotest.(check (float 0.0)) "value from owner" 3.0 (Dsm.load_float ctx a));
  Alcotest.(check int) "one 3-hop read" 1
    (miss_count h { Stats.kind = Msg.Read; three_hop = true })

let test_upgrade_and_invalidation () =
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 ~home:4 64 in
  let b = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      (* Phase 1: procs 0 and 1 read (both become sharers). *)
      if p <= 1 then ignore (Dsm.load_float ctx a);
      Dsm.barrier ctx b;
      (* Phase 2: proc 0 writes — an upgrade that invalidates proc 1. *)
      if p = 0 then Dsm.store_float ctx a 9.0;
      Dsm.barrier ctx b;
      (* Phase 3: proc 1 re-reads and must see the new value. *)
      if p = 1 then
        Alcotest.(check (float 0.0)) "sees new value" 9.0 (Dsm.load_float ctx a));
  Alcotest.(check int) "one upgrade miss" 1
    (miss_count h { Stats.kind = Msg.Upgrade; three_hop = false })

let test_invalid_flag_stamped_on_victim () =
  let h = base_machine ~nprocs:4 () in
  let a = Dsm.alloc h ~block_size:64 ~home:1 64 in
  Dsm.poke_float h a 1.25;
  let b = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p = 2 then ignore (Dsm.load_float ctx a);
      Dsm.barrier ctx b;
      if p = 3 then Dsm.store_float ctx a 2.0;
      Dsm.barrier ctx b);
  (* Proc 2's copy (its own node in Base mode) must now carry the flag. *)
  let m = Dsm.machine h in
  let img = m.Machine.nodes.(2).Machine.image in
  Alcotest.(check bool) "flag stamped" true (Image.is_flag64 (Image.load64 img a));
  let line = Layout.line_of m.Machine.layout a in
  Alcotest.(check bool) "state invalid" true
    (State_table.get m.Machine.nodes.(2).Machine.table line = State_table.Invalid)

let test_false_miss () =
  let h = base_machine ~nprocs:2 () in
  let a = Dsm.alloc h ~block_size:64 ~home:0 64 in
  (* The application data IS the flag pattern. *)
  Dsm.poke_float h a (Int64.float_of_bits Image.invalid_flag64);
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then begin
        let v = Dsm.load_float ctx a in
        Alcotest.(check int64) "flag value returned" Image.invalid_flag64
          (Int64.bits_of_float v)
      end);
  Alcotest.(check bool) "false miss recorded" true
    ((Dsm.aggregate_stats h).Stats.false_misses > 0);
  Alcotest.(check int) "no real miss" 0 (Stats.total_misses (Dsm.aggregate_stats h))

let test_nonblocking_store () =
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 ~home:4 64 in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then begin
        let m = Dsm.machine h in
        let before = (Shasta_sim.Engine.now (Option.get m.Machine.procs.(0).Machine.engine)) in
        Dsm.store_float ctx a 5.0;
        let after = (Shasta_sim.Engine.now (Option.get m.Machine.procs.(0).Machine.engine)) in
        (* The store returns long before a 20us round trip completes. *)
        Alcotest.(check bool) "store did not stall" true (after - before < 3000);
        (* But the entry is outstanding until the reply. *)
        Alcotest.(check bool) "outstanding store" true
          (m.Machine.procs.(0).Machine.outstanding_stores >= 1)
      end);
  Alcotest.(check (float 0.0)) "value landed" 5.0 (Dsm.peek_float h a)

let test_store_merge_on_reply () =
  (* Two processors store to different words of the same block around
     the same time; both writes must survive the reply merges. *)
  let h = base_machine ~nprocs:4 () in
  let a = Dsm.alloc h ~block_size:64 ~home:3 64 in
  Dsm.poke_float h a 0.0;
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      if p = 0 then Dsm.store_float ctx (a + 0) 1.0;
      if p = 1 then Dsm.store_float ctx (a + 8) 2.0;
      if p = 2 then Dsm.store_float ctx (a + 16) 3.0);
  Alcotest.(check (float 0.0)) "word 0" 1.0 (Dsm.peek_float h (a + 0));
  Alcotest.(check (float 0.0)) "word 1" 2.0 (Dsm.peek_float h (a + 8));
  Alcotest.(check (float 0.0)) "word 2" 3.0 (Dsm.peek_float h (a + 16))

(* A processor may have [max_outstanding_stores] stores outstanding.
   Processor 0 stores to one block more than that, all homed at
   processor 4: the first stores return before their round trips end,
   and the last waits for a slot. *)
let test_store_slot_wait () =
  let h = base_machine () in
  let m = Dsm.machine h in
  let limit =
    m.Machine.cfg.Config.timing.Shasta_core.Timing.max_outstanding_stores
  in
  let blocks =
    Array.init (limit + 1) (fun _ -> Dsm.alloc h ~block_size:64 ~home:4 64)
  in
  let took = Array.make (limit + 1) 0 and outstanding = ref [] in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then
        Array.iteri
          (fun i a ->
            let before = Dsm.now ctx in
            Dsm.store_float ctx a (float_of_int (i + 1));
            took.(i) <- Dsm.now ctx - before;
            outstanding :=
              m.Machine.procs.(0).Machine.outstanding_stores :: !outstanding)
          blocks);
  for i = 0 to limit - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "store %d returns early (%d cycles)" i took.(i))
      true (took.(i) < 1000)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "store %d waits for a slot (%d cycles)" limit took.(limit))
    true (took.(limit) > 3000);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d outstanding, limit %d" n limit)
        true (n <= limit))
    !outstanding;
  Array.iteri
    (fun i a ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "store %d landed" i)
        (float_of_int (i + 1))
        (Dsm.peek_float h a))
    blocks

let test_release_on_unlock () =
  (* A value stored before unlock must be visible to the next holder. *)
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 ~home:7 64 in
  let l = Dsm.alloc_lock h in
  let b = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      for round = 0 to Dsm.nprocs ctx - 1 do
        if Dsm.pid ctx = round then begin
          Dsm.lock ctx l;
          let v = Dsm.load_float ctx a in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "round %d" round)
            (float_of_int round) v;
          Dsm.store_float ctx a (v +. 1.0);
          Dsm.unlock ctx l
        end;
        Dsm.barrier ctx b
      done)

let test_lock_mutual_exclusion () =
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 64 in
  let l = Dsm.alloc_lock h in
  let rounds = 20 in
  Dsm.run h (fun ctx ->
      for _ = 1 to rounds do
        Dsm.lock ctx l;
        let v = Dsm.load_float ctx a in
        Dsm.compute ctx 500;
        Dsm.store_float ctx a (v +. 1.0);
        Dsm.unlock ctx l
      done);
  Alcotest.(check (float 0.0)) "all increments"
    (float_of_int (8 * rounds))
    (Dsm.peek_float h a)

let test_barrier_separates_phases () =
  let h = base_machine ~nprocs:4 () in
  let arr = Dsm.alloc_floats h 4 in
  let b = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      Dsm.store_float ctx (arr + (8 * p)) (float_of_int (p + 1));
      Dsm.barrier ctx b;
      let sum = ref 0.0 in
      for i = 0 to 3 do
        sum := !sum +. Dsm.load_float ctx (arr + (8 * i))
      done;
      Alcotest.(check (float 0.0)) "all phase-1 writes visible" 10.0 !sum)

let test_quiescent_after_run () =
  let h = base_machine () in
  let a = Dsm.alloc h 4096 in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      for i = 0 to 63 do
        Dsm.store_float ctx (a + (8 * ((i * 8) + p))) 1.0
      done);
  Alcotest.(check bool) "machine quiescent" true (Machine.quiescent (Dsm.machine h))

let test_read_latency_recorded () =
  let h = base_machine () in
  let a = Dsm.alloc h ~block_size:64 ~home:4 64 in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 0 then ignore (Dsm.load_float ctx a));
  let lat = Stats.mean_read_latency_us (Dsm.proc_stats h).(0) in
  Alcotest.(check bool) "latency near 20us" true (lat > 10.0 && lat < 40.0)

let () =
  Alcotest.run "protocol"
    [
      ( "misses",
        [
          Alcotest.test_case "2-hop read" `Quick test_two_hop_read;
          Alcotest.test_case "3-hop read" `Quick test_three_hop_read;
          Alcotest.test_case "upgrade + invalidation" `Quick
            test_upgrade_and_invalidation;
          Alcotest.test_case "false miss" `Quick test_false_miss;
          Alcotest.test_case "read latency" `Quick test_read_latency_recorded;
        ] );
      ( "invalid-flag",
        [
          Alcotest.test_case "stamped on victim" `Quick
            test_invalid_flag_stamped_on_victim;
        ] );
      ( "stores",
        [
          Alcotest.test_case "non-blocking" `Quick test_nonblocking_store;
          Alcotest.test_case "merge on reply" `Quick test_store_merge_on_reply;
          Alcotest.test_case "waits for a store slot" `Quick
            test_store_slot_wait;
        ] );
      ( "synchronization",
        [
          Alcotest.test_case "release on unlock" `Quick test_release_on_unlock;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "barrier phases" `Quick test_barrier_separates_phases;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "quiescent after run" `Quick test_quiescent_after_run ] );
    ]
