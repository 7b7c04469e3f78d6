(* Unit tests for the small core modules: messages, statistics, timing,
   directory and miss-table bookkeeping. *)

module Msg = Shasta_core.Msg
module Stats = Shasta_core.Stats
module Timing = Shasta_core.Timing
module Directory = Shasta_core.Directory
module Miss_table = Shasta_core.Miss_table
module Downgrade = Shasta_core.Downgrade
module Bitset = Shasta_util.Bitset

let test_msg_sizes () =
  let small = Msg.size_bytes (Msg.Req { kind = Msg.Read; block = 0 }) in
  let data =
    Msg.size_bytes
      (Msg.Data_reply
         {
           kind = Msg.Read;
           block = 0;
           data = Bytes.create 64;
           from_home = true;
           inval_acks = 0;
         })
  in
  Alcotest.(check int) "header only" 16 small;
  Alcotest.(check int) "header + payload" (16 + 64) data

let test_msg_describe () =
  Alcotest.(check string) "read req" "read_req"
    (Msg.describe (Msg.Req { kind = Msg.Read; block = 0 }));
  Alcotest.(check string) "downgrade" "downgrade"
    (Msg.describe (Msg.Downgrade { block = 0; target = Shasta_mem.State_table.Shared }))

let test_stats_accounting () =
  let s = Stats.create () in
  Stats.add_cycles s Stats.Task 100;
  Stats.add_cycles s Stats.Read 50;
  Stats.add_cycles s Stats.Task 10;
  Alcotest.(check int) "task" 110 (Stats.cycles s Stats.Task);
  Alcotest.(check int) "total" 160 (Stats.total_cycles s);
  Stats.record_miss s { Stats.kind = Msg.Read; three_hop = true };
  Stats.record_miss s { Stats.kind = Msg.Upgrade; three_hop = false };
  Alcotest.(check int) "miss classes distinct" 1
    (Stats.miss_count s { Stats.kind = Msg.Read; three_hop = true });
  Alcotest.(check int) "miss total" 2 (Stats.total_misses s)

let test_stats_aggregate () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_cycles a Stats.Sync 5;
  Stats.add_cycles b Stats.Sync 7;
  Stats.record_read_latency a 300;
  Stats.record_read_latency b 900;
  let m = Stats.aggregate [ a; b ] in
  Alcotest.(check int) "cycles summed" 12 (Stats.cycles m Stats.Sync);
  Alcotest.(check (float 1e-9)) "latency pooled (2us mean)" 2.0
    (Stats.mean_read_latency_us m)

let test_timing_sanity () =
  let t = Timing.default in
  Alcotest.(check bool) "SMP float check costlier" true
    (t.Timing.load_check_flag_float_smp > t.Timing.load_check_flag_float_base);
  Alcotest.(check bool) "SMP batch check costlier" true
    (t.Timing.batch_check_per_line_smp > t.Timing.batch_check_per_line_base);
  Alcotest.(check (float 1e-9)) "cycle conversion" 1.0 (Timing.us_of_cycles 300)

let test_directory_queue_fifo () =
  let d = Directory.create () in
  let e = Directory.entry d ~block:0 ~home:3 in
  Alcotest.(check int) "fresh owner is home" 3 e.Directory.owner;
  Directory.push_queued e ~src:1 Msg.Read;
  Directory.push_queued e ~src:2 Msg.Readex;
  (match Directory.pop_queued e with
  | Some (src, kind) ->
    Alcotest.(check int) "FIFO order" 1 src;
    Alcotest.(check bool) "first kind" true (kind = Msg.Read)
  | None -> Alcotest.fail "queue empty");
  (match Directory.pop_queued e with
  | Some (src, kind) ->
    Alcotest.(check int) "second" 2 src;
    Alcotest.(check bool) "second kind" true (kind = Msg.Readex)
  | None -> Alcotest.fail "queue empty");
  Alcotest.(check bool) "drained" true (Directory.pop_queued e = None)

let test_miss_table_lifecycle () =
  let t = Miss_table.create () in
  let e = Miss_table.add t ~block:64 ~requester:2 ~kind:Msg.Readex ~now:100 in
  Alcotest.(check bool) "incomplete without reply" false (Miss_table.complete e);
  e.Miss_table.data_ready <- true;
  e.Miss_table.acks_expected <- 2;
  Alcotest.(check bool) "incomplete without acks" false (Miss_table.complete e);
  e.Miss_table.acks_received <- 2;
  Alcotest.(check bool) "complete" true (Miss_table.complete e);
  Alcotest.(check bool) "find by block" true (Miss_table.find t ~block:64 <> None);
  Alcotest.(check bool) "find by id" true (Miss_table.find_id t e.Miss_table.id <> None);
  Miss_table.add_store_range e ~off:8 ~len:16 ~proc:5;
  Alcotest.(check bool) "store proc recorded" true
    (Bitset.mem 5 e.Miss_table.store_procs);
  Miss_table.remove t e;
  Alcotest.(check int) "empty" 0 (Miss_table.count t);
  Alcotest.(check bool) "id retired" true (Miss_table.find_id t e.Miss_table.id = None)

let test_downgrade_queue () =
  let t = Downgrade.create () in
  let e =
    Downgrade.add t ~block:0 ~target:Shasta_mem.State_table.Invalid
      ~deferred:(Downgrade.Inval_done { requester = 7 })
      ~remaining:2
  in
  Downgrade.push_queued e ~src:1 (Msg.Req { kind = Msg.Read; block = 0 });
  Downgrade.push_queued e ~src:2 (Msg.Req { kind = Msg.Read; block = 0 });
  let q = Downgrade.take_queued e in
  Alcotest.(check (list int)) "arrival order" [ 1; 2 ] (List.map fst q);
  Alcotest.(check (list int)) "queue cleared" []
    (List.map fst (Downgrade.take_queued e));
  Downgrade.remove t e;
  Alcotest.(check int) "removed" 0 (Downgrade.count t)

let () =
  Alcotest.run "core-units"
    [
      ( "msg",
        [
          Alcotest.test_case "sizes" `Quick test_msg_sizes;
          Alcotest.test_case "describe" `Quick test_msg_describe;
        ] );
      ( "stats",
        [
          Alcotest.test_case "accounting" `Quick test_stats_accounting;
          Alcotest.test_case "aggregate" `Quick test_stats_aggregate;
        ] );
      ("timing", [ Alcotest.test_case "sanity" `Quick test_timing_sanity ]);
      ( "directory",
        [ Alcotest.test_case "queue fifo" `Quick test_directory_queue_fifo ] );
      ( "miss-table",
        [ Alcotest.test_case "lifecycle" `Quick test_miss_table_lifecycle ] );
      ( "downgrade",
        [ Alcotest.test_case "queue" `Quick test_downgrade_queue ] );
    ]
