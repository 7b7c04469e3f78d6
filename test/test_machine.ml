(* Machine-level state: allocation-time ownership, home placement,
   geometry queries and synchronization object allocation. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Layout = Shasta_mem.Layout

let machine () =
  Machine.create (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 ())

let test_initial_ownership () =
  let m = machine () in
  let a = Machine.alloc m ~block_size:64 ~home:5 256 in
  let home_node = Machine.node_of m 5 in
  let line = Layout.line_of m.Machine.layout a in
  Array.iteri
    (fun n ns ->
      let st = State_table.get ns.Machine.table line in
      if n = home_node then
        Alcotest.(check bool) "home node exclusive" true (st = State_table.Exclusive)
      else begin
        Alcotest.(check bool) "other nodes invalid" true (st = State_table.Invalid);
        Alcotest.(check bool) "flag stamped" true
          (Image.is_flag64 (Image.load64 ns.Machine.image a))
      end)
    m.Machine.nodes;
  Alcotest.(check int) "home lookup" 5 (Machine.home_of_block m a)

let test_home_proc_private_exclusive () =
  let m = machine () in
  let a = Machine.alloc m ~block_size:64 ~home:2 64 in
  let line = Layout.line_of m.Machine.layout a in
  Array.iteri
    (fun p tbl ->
      let expect = if p = 2 then State_table.Exclusive else State_table.Invalid in
      Alcotest.(check bool) (Printf.sprintf "private of %d" p) true
        (State_table.get tbl line = expect))
    m.Machine.privates

let test_place_moves_ownership () =
  let m = machine () in
  let a = Machine.alloc m 8192 in
  Machine.place m ~addr:a ~len:8192 ~proc:6;
  Alcotest.(check int) "rehomed" 6 (Machine.home_of_block m a);
  let line = Layout.line_of m.Machine.layout a in
  let new_node = Machine.node_of m 6 in
  Array.iteri
    (fun n ns ->
      let st = State_table.get ns.Machine.table line in
      Alcotest.(check bool) "only new node valid" true
        (if n = new_node then st = State_table.Exclusive
         else st = State_table.Invalid))
    m.Machine.nodes

(* A small object is one block, so it can straddle a page boundary into
   a page homed elsewhere. Its block's home (that of its first line)
   holds the whole block zeroed and every other node the whole block
   flagged, whatever the second page's home. *)
let test_straddling_block_follows_its_home () =
  let m = Machine.create (Config.create ~variant:Config.Base ~nprocs:4 ()) in
  let ps = m.Machine.layout.Layout.page_size in
  ignore (Machine.alloc m (ps - 128));
  let a = Machine.alloc m 512 in
  Alcotest.(check int) "straddles" (ps - 128) a;
  let home = Machine.home_of_block m a in
  let tail_home = Machine.home_of_block m ps in
  Alcotest.(check bool) "pages homed on different nodes" true
    (Machine.node_of m home <> Machine.node_of m tail_home);
  Array.iteri
    (fun n ns ->
      for w = 0 to (512 / 8) - 1 do
        let v = Image.load64 ns.Machine.image (a + (8 * w)) in
        if n = Machine.node_of m home then
          Alcotest.(check int64) "home node zeroed" 0L v
        else Alcotest.(check bool) "other node flagged" true (Image.is_flag64 v)
      done)
    m.Machine.nodes

let test_block_geometry () =
  let m = machine () in
  let a = Machine.alloc m ~block_size:512 2048 in
  Alcotest.(check int) "base of middle addr" a (Machine.block_base m (a + 300));
  Alcotest.(check int) "block size" 512 (Machine.block_size m (a + 300));
  Alcotest.(check int) "second block base" (a + 512) (Machine.block_base m (a + 700))

let test_sync_allocation () =
  let m = machine () in
  let l1 = Machine.alloc_lock m and l2 = Machine.alloc_lock m in
  Alcotest.(check bool) "distinct locks" true (l1 <> l2);
  let b = Machine.alloc_barrier m in
  Alcotest.(check bool) "barrier exists" true (Hashtbl.mem m.Machine.barriers b);
  Alcotest.(check bool) "lock homes in range" true
    (Machine.lock_home m l1 >= 0 && Machine.lock_home m l1 < 8)

let test_fresh_machine_quiescent () =
  let m = machine () in
  ignore (Machine.alloc m 1024);
  (* No processors have run: not quiescent only because procs unfinished. *)
  Alcotest.(check bool) "not quiescent before run" false (Machine.quiescent m)

let test_node_partition () =
  let cfg = Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:2 () in
  Alcotest.(check int) "nnodes" 4 (Config.nnodes cfg);
  Alcotest.(check (list int)) "node 1 procs" [ 2; 3 ] (Config.procs_of_node cfg 1)

let test_config_validation () =
  Alcotest.check_raises "base clustering"
    (Invalid_argument "Config.create: Base-Shasta requires clustering = 1")
    (fun () ->
      ignore (Config.create ~variant:Config.Base ~nprocs:4 ~clustering:2 ()));
  Alcotest.check_raises "clustering divides node"
    (Invalid_argument "Config.create: clustering must divide procs_per_node")
    (fun () ->
      ignore (Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:3 ()))

let test_poke_peek () =
  let cfg = Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4 () in
  let h = Dsm.create cfg in
  let a = Dsm.alloc_floats h ~home:3 4 in
  Dsm.poke_float h (a + 8) 2.5;
  Dsm.poke_int h (a + 16) 77;
  Alcotest.(check (float 0.0)) "peek float" 2.5 (Dsm.peek_float h (a + 8));
  Alcotest.(check int) "peek int" 77 (Dsm.peek_int h (a + 16))

(* Regression for the PR-5 flight-recorder livelock shape: a second
   [~home] allocation landing mid-page on a page homed elsewhere would
   silently re-home the earlier object's bytes and orphan its directory
   entries. The machine must refuse the conflicting pin at allocation
   time — and must keep allowing deliberate same-home packing (several
   small blocks on one pinned page, as the trace tests do). *)
let test_home_footgun_conflict () =
  let m = machine () in
  let a = Machine.alloc m ~block_size:64 ~home:5 64 in
  let ps = m.Machine.layout.Layout.page_size in
  Alcotest.(check bool) "first alloc mid-page follows" true (ps > 64);
  match Machine.alloc m ~block_size:64 ~home:3 64 with
  | _ -> Alcotest.fail "conflicting mid-page ~home pin must raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message names the mid-page conflict" true
      (String.length msg > 0
      && String.sub msg 0 (min 17 (String.length msg)) = "Machine.alloc ~ho");
    (* The refused pin must not have re-homed the earlier object. *)
    Alcotest.(check int) "earlier object keeps its home" 5
      (Machine.home_of_block m a)

let test_home_footgun_same_home_pack () =
  let m = machine () in
  let a = Machine.alloc m ~block_size:64 ~home:4 64 in
  let b = Machine.alloc m ~block_size:64 ~home:4 64 in
  Alcotest.(check int) "first packed block homed" 4 (Machine.home_of_block m a);
  Alcotest.(check int) "second packed block homed" 4 (Machine.home_of_block m b)

let test_home_footgun_page_aligned () =
  let m = machine () in
  let ps = m.Machine.layout.Layout.page_size in
  let a = Machine.alloc m ~block_size:64 ~home:5 ps in
  (* The next allocation starts on a fresh page: any home is fine. *)
  let b = Machine.alloc m ~block_size:64 ~home:3 64 in
  Alcotest.(check int) "full-page pin kept" 5 (Machine.home_of_block m a);
  Alcotest.(check int) "fresh-page pin kept" 3 (Machine.home_of_block m b)

let () =
  Alcotest.run "machine"
    [
      ( "ownership",
        [
          Alcotest.test_case "initial at home" `Quick test_initial_ownership;
          Alcotest.test_case "home private exclusive" `Quick
            test_home_proc_private_exclusive;
          Alcotest.test_case "place moves ownership" `Quick
            test_place_moves_ownership;
          Alcotest.test_case "straddling block follows its home" `Quick
            test_straddling_block_follows_its_home;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "blocks" `Quick test_block_geometry;
          Alcotest.test_case "node partition" `Quick test_node_partition;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "setup",
        [
          Alcotest.test_case "sync allocation" `Quick test_sync_allocation;
          Alcotest.test_case "quiescence" `Quick test_fresh_machine_quiescent;
          Alcotest.test_case "poke/peek" `Quick test_poke_peek;
        ] );
      ( "home footgun",
        [
          Alcotest.test_case "conflicting mid-page pin raises" `Quick
            test_home_footgun_conflict;
          Alcotest.test_case "same-home packing allowed" `Quick
            test_home_footgun_same_home_pack;
          Alcotest.test_case "page-aligned pins unaffected" `Quick
            test_home_footgun_page_aligned;
        ] );
    ]
