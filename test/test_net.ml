(* Tests for the interconnect model. *)

module Topology = Shasta_net.Topology
module Link = Shasta_net.Link
module Network = Shasta_net.Network

let test_topology () =
  let t = Topology.create ~nprocs:16 ~procs_per_node:4 in
  Alcotest.(check int) "nodes" 4 (Topology.nnodes t);
  Alcotest.(check int) "node of 5" 1 (Topology.node_of t 5);
  Alcotest.(check bool) "same node" true (Topology.same_node t 4 7);
  Alcotest.(check bool) "different nodes" false (Topology.same_node t 3 4);
  Alcotest.(check (list int)) "procs of node 2" [ 8; 9; 10; 11 ]
    (Topology.procs_of_node t 2)

let test_topology_partial () =
  let t = Topology.create ~nprocs:6 ~procs_per_node:4 in
  Alcotest.(check int) "two nodes" 2 (Topology.nnodes t);
  Alcotest.(check (list int)) "partial node" [ 4; 5 ] (Topology.procs_of_node t 1)

let test_link_costs () =
  let l = Link.default in
  let local = Link.transfer_cycles l ~same_node:true ~size:64 in
  let remote = Link.transfer_cycles l ~same_node:false ~size:64 in
  Alcotest.(check bool) "remote slower" true (remote > local);
  let small = Link.transfer_cycles l ~same_node:false ~size:16 in
  Alcotest.(check bool) "size matters" true (remote > small)

let test_network_delivery () =
  let topo = Topology.create ~nprocs:4 ~procs_per_node:2 in
  let net = Network.create topo Link.default in
  Network.send net ~src:0 ~dst:1 ~now:0 ~size:16 "hello";
  Alcotest.(check (option (pair int string))) "not arrived yet" None
    (Network.poll net ~dst:1 ~now:0);
  (match Network.peek_arrival net ~dst:1 with
  | Some t ->
    Alcotest.(check (option (pair int string)))
      "arrives at its timestamp" (Some (0, "hello"))
      (Network.poll net ~dst:1 ~now:t)
  | None -> Alcotest.fail "message lost");
  Alcotest.(check int) "queue drained" 0 (Network.queued net ~dst:1)

let test_network_fifo_per_pair () =
  (* A small message sent after a large one must not overtake it. *)
  let topo = Topology.create ~nprocs:2 ~procs_per_node:1 in
  let net = Network.create topo Link.default in
  Network.send net ~src:0 ~dst:1 ~now:0 ~size:8192 "big";
  Network.send net ~src:0 ~dst:1 ~now:1 ~size:0 "small";
  let got = ref [] in
  let rec drain now =
    match Network.poll net ~dst:1 ~now with
    | Some (_, m) ->
      got := m :: !got;
      drain now
    | None -> if Network.queued net ~dst:1 > 0 then drain (now + 100)
  in
  drain 0;
  Alcotest.(check (list string)) "FIFO per pair" [ "big"; "small" ] (List.rev !got)

let test_network_counters () =
  let topo = Topology.create ~nprocs:4 ~procs_per_node:2 in
  let net = Network.create topo Link.default in
  Network.send net ~src:0 ~dst:1 ~now:0 ~size:10 "local";
  Network.send net ~src:0 ~dst:2 ~now:0 ~size:20 "remote";
  Network.send net ~src:3 ~dst:2 ~now:0 ~size:30 "local2";
  Alcotest.(check int) "local count" 2 (Network.sent_local net);
  Alcotest.(check int) "remote count" 1 (Network.sent_remote net);
  Alcotest.(check int) "remote bytes" 20 (Network.bytes_remote net)

(* Direct unit tests of the delivery heap: pop order is (arrival, sent,
   src, seq) lexicographic, so equal-arrival messages drain by send
   time, then sender id, then per-sender sequence — a function of
   virtual time and sender identity only, never of host-time send
   order. *)
let msg ?(sent = 0) ?(src = 0) ?(seq = 0) arrival payload =
  { Network.arrival; sent; src; seq; payload }

let heap_drain h =
  let rec go acc =
    match Network.Heap.pop h with
    | Some m -> go (m.Network.payload :: acc)
    | None -> List.rev acc
  in
  go []

let test_heap_pop_ordering () =
  let h = Network.Heap.create () in
  Alcotest.(check int) "empty min_arrival" max_int (Network.Heap.min_arrival h);
  List.iter
    (Network.Heap.push h)
    [ msg 30 "c"; msg 10 "a"; msg 40 "d"; msg 20 "b"; msg 50 "e" ];
  Alcotest.(check int) "size" 5 (Network.Heap.size h);
  Alcotest.(check int) "min_arrival" 10 (Network.Heap.min_arrival h);
  (match Network.Heap.peek h with
  | Some m -> Alcotest.(check string) "peek is min" "a" m.Network.payload
  | None -> Alcotest.fail "peek on non-empty heap");
  Alcotest.(check (list string))
    "pops in arrival order"
    [ "a"; "b"; "c"; "d"; "e" ]
    (heap_drain h);
  Alcotest.(check int) "drained" 0 (Network.Heap.size h)

let test_heap_tie_breaks () =
  let h = Network.Heap.create () in
  (* All arrive at 100; pushed in a deliberately scrambled order. *)
  List.iter
    (Network.Heap.push h)
    [
      msg ~sent:5 ~src:1 ~seq:9 100 "sent5.src1";
      msg ~sent:3 ~src:2 ~seq:8 100 "sent3.src2.seq8";
      msg ~sent:5 ~src:0 ~seq:7 100 "sent5.src0";
      msg ~sent:3 ~src:2 ~seq:2 100 "sent3.src2.seq2";
      msg ~sent:3 ~src:0 ~seq:6 100 "sent3.src0";
    ];
  Alcotest.(check (list string))
    "equal arrival drains by (sent, src, seq)"
    [
      "sent3.src0"; "sent3.src2.seq2"; "sent3.src2.seq8"; "sent5.src0";
      "sent5.src1";
    ]
    (heap_drain h)

let test_fifo_arrival_bump () =
  (* When a later send on the same (src,dst) pair computes an arrival at
     or before its predecessor's, it is bumped to predecessor + 1 —
     strictly FIFO without reordering the heap. *)
  let topo = Topology.create ~nprocs:2 ~procs_per_node:1 in
  let net = Network.create topo Link.default in
  let zero_cost = Link.transfer_cycles Link.default ~same_node:false ~size:0 in
  Network.send net ~src:0 ~dst:1 ~now:0 ~size:8192 "big";
  let big_arrival =
    match Network.peek_arrival net ~dst:1 with
    | Some t -> t
    | None -> Alcotest.fail "big lost"
  in
  Network.send net ~src:0 ~dst:1 ~now:1 ~size:0 "small";
  (* The small message alone would arrive at [1 + zero_cost], well
     before the big one. *)
  Alcotest.(check bool) "bump actually triggered" true
    (1 + zero_cost < big_arrival);
  (match Network.poll net ~dst:1 ~now:big_arrival with
  | Some (_, m) -> Alcotest.(check string) "big first" "big" m
  | None -> Alcotest.fail "big not delivered at its arrival");
  Alcotest.(check (option (pair int string)))
    "small not yet due at big's arrival" None
    (Network.poll net ~dst:1 ~now:big_arrival);
  Alcotest.(check (option (pair int string)))
    "small due exactly one cycle later"
    (Some (0, "small"))
    (Network.poll net ~dst:1 ~now:(big_arrival + 1))

let prop_arrival_order =
  QCheck.Test.make ~name:"poll yields messages in arrival order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_bound 3) (int_bound 500)))
    (fun sends ->
      let topo = Topology.create ~nprocs:4 ~procs_per_node:2 in
      let net = Network.create topo Link.default in
      List.iter
        (fun (src, now) -> Network.send net ~src ~dst:3 ~now ~size:8 now)
        sends;
      let rec drain acc now =
        match Network.poll net ~dst:3 ~now with
        | Some (_, _) -> (
          (* record the arrival time used *)
          match Network.peek_arrival net ~dst:3 with
          | _ -> drain (now :: acc) now)
        | None -> if Network.queued net ~dst:3 > 0 then drain acc (now + 50) else acc
      in
      let _ = drain [] 0 in
      true)

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "basic" `Quick test_topology;
          Alcotest.test_case "partial node" `Quick test_topology_partial;
        ] );
      ("link", [ Alcotest.test_case "costs" `Quick test_link_costs ]);
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "fifo per pair" `Quick test_network_fifo_per_pair;
          Alcotest.test_case "counters" `Quick test_network_counters;
          QCheck_alcotest.to_alcotest prop_arrival_order;
        ] );
      ( "heap",
        [
          Alcotest.test_case "pop ordering" `Quick test_heap_pop_ordering;
          Alcotest.test_case "tie-breaks" `Quick test_heap_tie_breaks;
          Alcotest.test_case "fifo arrival bump" `Quick test_fifo_arrival_bump;
        ] );
    ]
