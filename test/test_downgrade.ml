(* Downgrade bookkeeping (§3.4.3): queued-request FIFO order, the
   one-downgrade-per-block precondition, and an end-to-end regression
   that messages queued while a downgrade is pending are replayed in
   arrival order. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Observer = Shasta_core.Observer
module Event = Shasta_core.Event
module Downgrade = Shasta_core.Downgrade
module Msg = Shasta_core.Msg

let entry_of t ~block =
  match Downgrade.find t ~block with
  | Some e -> e
  | None -> Alcotest.fail "expected a downgrade entry"

let test_take_queued_fifo () =
  let t = Downgrade.create () in
  let _e =
    Downgrade.add t ~block:0x40 ~target:Shasta_mem.State_table.Shared
      ~deferred:(Downgrade.Reply_read { requester = 2 })
      ~remaining:2
  in
  let e = entry_of t ~block:0x40 in
  Downgrade.push_queued e ~src:3 (Msg.Req { kind = Msg.Read; block = 0x40 });
  Downgrade.push_queued e ~src:1 (Msg.Req { kind = Msg.Readex; block = 0x40 });
  Downgrade.push_queued e ~src:5 (Msg.Invalidate { block = 0x40; requester = 1 });
  let order = List.map fst (Downgrade.take_queued e) in
  Alcotest.(check (list int)) "arrival order" [ 3; 1; 5 ] order;
  Alcotest.(check (list int)) "queue cleared" []
    (List.map fst (Downgrade.take_queued e))

let test_add_twice_rejected () =
  let t = Downgrade.create () in
  let _ =
    Downgrade.add t ~block:0x80 ~target:Shasta_mem.State_table.Invalid
      ~deferred:(Downgrade.Inval_done { requester = 0 })
      ~remaining:1
  in
  let raised =
    try
      ignore
        (Downgrade.add t ~block:0x80 ~target:Shasta_mem.State_table.Shared
           ~deferred:(Downgrade.Reply_read { requester = 2 })
           ~remaining:1);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second add rejected" true raised;
  (* A different block is still accepted. *)
  ignore
    (Downgrade.add t ~block:0xc0 ~target:Shasta_mem.State_table.Shared
       ~deferred:(Downgrade.Reply_read { requester = 2 })
       ~remaining:1);
  Alcotest.(check int) "two entries" 2 (Downgrade.count t)

(* Regression: messages queued on a pending downgrade must be replayed
   in arrival order after the deferred action runs (§3.4.3).

   The home's busy bit serializes transactions so strictly that live
   traffic lands in the DIRECTORY queue rather than on the downgrade
   entry; the entry's queue guards against request/downgrade overlap the
   simulator's atomic handlers cannot produce on their own. To exercise
   the replay machinery end-to-end with real in-flight messages, an
   observer transfers the directory-queued read requests — issued by
   genuinely missing remote processors — onto the live downgrade entry
   at ack time. Their replay then flows through the full protocol:
   each request is re-dispatched after the downgrade completes and is
   answered with a data reply the requester is actually waiting for. *)
let test_replay_in_arrival_order () =
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:8 ~procs_per_node:2 ~clustering:2
      ~heap_bytes:(64 * 1024) ()
  in
  let h = Dsm.create cfg in
  let m = Dsm.machine h in
  let x = Dsm.alloc h ~home:0 8 in
  let block = Shasta_core.Machine.block_base m x in
  let b0 = Dsm.alloc_barrier h and b1 = Dsm.alloc_barrier h in
  let got = Array.make 8 (-1) in
  let queued = ref [] and replayed = ref [] in
  let transfer b =
    if b = block then
      match
        ( Shasta_core.Directory.find m.Shasta_core.Machine.dirs.(0) ~block,
          Downgrade.find
            m.Shasta_core.Machine.nodes.(0).Shasta_core.Machine.downgrades
            ~block )
      with
      | Some de, Some dg ->
        let rec drain () =
          match Shasta_core.Directory.pop_queued de with
          | Some (src, kind) ->
            let msg = Msg.Req { kind; block } in
            Downgrade.push_queued dg ~src msg;
            queued := (src, Msg.describe msg) :: !queued;
            drain ()
          | None -> ()
        in
        drain ()
      | _ -> ()
  in
  Dsm.add_observer h
    {
      Observer.nil with
      on_event =
        (fun e ->
          match e.Event.payload with
          | Downgrade_ack { block } -> transfer block
          | Downgrade_replay { src; kind; _ } ->
            replayed := (src, Event.msg_kind_name kind) :: !replayed
          | _ -> ());
    };
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      (* Both processors of the home node write, so the first remote
         read forces an exclusive-to-shared downgrade with a sibling
         target; reads from the two other nodes (sibling misses would
         coalesce, so one reader per node) arrive during the window and
         queue at the busy directory. *)
      if p < 2 then Dsm.store_int ctx x 7;
      Dsm.barrier ctx b0;
      if p >= 2 && p mod 2 = 0 then got.(p) <- Dsm.load_int ctx x;
      Dsm.barrier ctx b1;
      got.(p) <- Dsm.load_int ctx x);
  Alcotest.(check bool) "queued at least one request" true (!queued <> []);
  Alcotest.(check (list (pair int string)))
    "replayed in arrival order" (List.rev !queued) (List.rev !replayed);
  Array.iteri
    (fun p v -> Alcotest.(check int) (Printf.sprintf "proc %d value" p) 7 v)
    got

let () =
  Alcotest.run "downgrade"
    [
      ( "queue",
        [
          Alcotest.test_case "take_queued FIFO" `Quick test_take_queued_fifo;
          Alcotest.test_case "add twice rejected" `Quick test_add_twice_rejected;
        ] );
      ( "replay",
        [
          Alcotest.test_case "arrival order end-to-end" `Quick
            test_replay_in_arrival_order;
        ] );
    ]
