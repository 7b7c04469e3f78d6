(* Deterministic regressions: the exact configurations under which
   protocol bugs were found during development (mostly by the QCheck
   properties, whose discovery seeds vary run to run). Each case pins
   the scenario so it can never silently return.

   The bugs, in the order they were found (see DESIGN.md 5b):
   1. read-forward deadlock against a pending upgrade's busy queue;
   2. deferred-reply self-delivery clobbering a fresh exclusive grant;
   3. transaction-overlap assert (new request over an ack-draining entry);
   4. batch livelock when two nodes fight over one block;
   5. stale shared copy kept by a node with a pending write entry;
   6. invalid-flag stamp preserving ranges of an already-serialized store;
   7. home forwarding to a new owner whose data had not arrived
      (ownership acks now come from the requester);
   8. home's own node invalidated asynchronously by its own transaction
      (home-node invalidations now run inline);
   9. store merged into a data-ready entry that no future reply covers;
   10. private entry raised back to exclusive during a pending downgrade;
   11. stale invalidation downgrading a fresh Exclusive copy (the node
       then waited forever on its own miss entry).

   This file also absorbed the one-shot debug drivers (debug_repro.ml,
   debug_hang.ml) that once lived beside it: their scenarios are pinned
   below, and the hang-dump capability moved to `shasta_cli trace`
   (which prints the machine state and the freshest trace events on a
   cycle-limit hang). *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module App = Shasta_apps.App

let value s t = float_of_int ((s * 1000) + t)

(* Mirror of test_props.run_phased with pinned parameters. *)
let phased ~variant ~nprocs ~clustering ~block_size ~nslots ~nphases ~seed () =
  let owner s t = (s * 2654435761) lxor (t * 40503) |> abs |> fun v -> v mod nprocs in
  let writes s t = (s + t) mod 3 = 0 && s < nslots in
  let last_write s upto =
    let rec go t = if t < 0 then None else if writes s t then Some t else go (t - 1) in
    go upto
  in
  let cfg =
    Config.create ~variant ~nprocs ~clustering ~seed ~heap_bytes:(4 * 1024 * 1024) ()
  in
  let h = Dsm.create cfg in
  let arr = Dsm.alloc h ~block_size (8 * nslots) in
  let bar = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      for t = 0 to nphases - 1 do
        for s = 0 to nslots - 1 do
          if writes s t && owner s t = p then
            Dsm.store_float ctx (arr + (8 * s)) (value s t)
        done;
        Dsm.barrier ctx bar;
        for s = 0 to nslots - 1 do
          if (s + t + p) mod 4 = 0 then begin
            let v = Dsm.load_float ctx (arr + (8 * s)) in
            let expect =
              match last_write s t with Some tw -> value s tw | None -> 0.0
            in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "phase %d slot %d" t s)
              expect v
          end
        done;
        Dsm.barrier ctx bar
      done);
  Shasta_core.Inspect.assert_invariants (Dsm.machine h)

(* Mirror of test_props.run_counters with pinned parameters. *)
let counters ~variant ~clustering ~ncounters ~rounds ~seed () =
  let nprocs = 8 in
  let cfg = Config.create ~variant ~nprocs ~clustering ~seed () in
  let h = Dsm.create cfg in
  let arr = Dsm.alloc h ~block_size:64 (8 * ncounters) in
  let locks = Array.init ncounters (fun _ -> Dsm.alloc_lock h) in
  Dsm.run h (fun ctx ->
      let prng = Dsm.prng ctx in
      for _ = 1 to rounds do
        let c = Shasta_util.Prng.int prng ncounters in
        Dsm.lock ctx locks.(c);
        let v = Dsm.load_float ctx (arr + (8 * c)) in
        Dsm.store_float ctx (arr + (8 * c)) (v +. 1.0);
        Dsm.unlock ctx locks.(c)
      done);
  let total = ref 0.0 in
  for c = 0 to ncounters - 1 do
    total := !total +. Dsm.peek_float h (arr + (8 * c))
  done;
  Alcotest.(check (float 0.0)) "all increments" (float_of_int (nprocs * rounds)) !total

(* Mirror of test_props.run_phased_batched with pinned parameters. *)
let batched ~clustering ~block_size ~nslots ~nphases ~seed () =
  let nprocs = 8 in
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs ~clustering ~seed
      ~heap_bytes:(4 * 1024 * 1024) ()
  in
  let h = Dsm.create cfg in
  let arr = Dsm.alloc h ~block_size (8 * nslots) in
  let bar = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let p = Dsm.pid ctx in
      for t = 0 to nphases - 1 do
        let lo = p * nslots / nprocs and hi = (p + 1) * nslots / nprocs in
        if hi > lo then
          Dsm.batch ctx
            [ (arr + (8 * lo), 8 * (hi - lo), Dsm.W) ]
            (fun () ->
              for s = lo to hi - 1 do
                Dsm.Batch.store_float ctx (arr + (8 * s)) (value s t)
              done);
        Dsm.barrier ctx bar;
        let q = (p + t + 1) mod nprocs in
        let qlo = q * nslots / nprocs and qhi = (q + 1) * nslots / nprocs in
        if qhi > qlo then begin
          Dsm.batch ctx
            [ (arr + (8 * qlo), 8 * (qhi - qlo), Dsm.R) ]
            (fun () ->
              for s = qlo to qhi - 1 do
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "batched phase %d slot %d" t s)
                  (value s t)
                  (Dsm.Batch.load_float ctx (arr + (8 * s)))
              done);
          Alcotest.(check (float 0.0)) "plain reread" (value qlo t)
            (Dsm.load_float ctx (arr + (8 * qlo)))
        end;
        Dsm.barrier ctx bar
      done);
  Shasta_core.Inspect.assert_invariants (Dsm.machine h)

(* Mirror of test_props.run_and_check_directory with a pinned seed. At
   seed 7787 an invalidation of node 1's shared copy landed after node 1
   had become Exclusive through a readex served by the invalidating
   writer; it downgraded the fresh copy while the directory still named
   node 1's processor owner, and node 1's next readex queued on its own
   miss entry forever ([Cycle_limit]). *)
let directory ~seed () =
  let nprocs = 8 in
  let cfg = Config.create ~variant:Config.Smp ~nprocs ~clustering:4 ~seed () in
  let h = Dsm.create cfg in
  let nslots = 64 in
  let arr = Dsm.alloc h ~block_size:128 (8 * nslots) in
  let bar = Dsm.alloc_barrier h in
  Dsm.run h (fun ctx ->
      let prng = Dsm.prng ctx in
      for _ = 1 to 50 do
        let s = Shasta_util.Prng.int prng nslots in
        if Shasta_util.Prng.bool prng then
          Dsm.store_float ctx (arr + (8 * s)) 1.0
        else ignore (Dsm.load_float ctx (arr + (8 * s)))
      done;
      Dsm.barrier ctx bar);
  Alcotest.(check bool) "quiescent" true (Machine.quiescent (Dsm.machine h));
  Shasta_core.Inspect.assert_invariants (Dsm.machine h)

(* Water-Nsq with 2048-byte blocks under SMP stressed most of the
   historical store-merge and flag-stamp bugs. *)
let water_nsq_vg () =
  let inst = Shasta_apps.Water_nsq.instance ~vg:true () in
  let cfg = Config.create ~variant:Config.Smp ~nprocs:16 ~clustering:4 () in
  let h = Dsm.create cfg in
  let body, verify = inst.App.setup h in
  Dsm.run h body;
  Shasta_core.Inspect.assert_invariants (Dsm.machine h);
  let v = verify h in
  Alcotest.(check bool) v.App.detail true v.App.ok

(* Dsm.peek scans every node for a valid copy and must prefer an
   Exclusive one over a Shared one wherever each sits in the scan order
   (the Shared-handling arm once used a polymorphic [= None] compare;
   now a pattern match, pinned here). The states are forged directly —
   a correct protocol never leaves Shared and Exclusive coexisting. *)
let peek_prefers_exclusive () =
  let module ST = Shasta_mem.State_table in
  let module Image = Shasta_mem.Image in
  let check_order ~exclusive_node ~shared_node =
    let cfg = Config.create ~variant:Config.Base ~nprocs:3 () in
    let h = Dsm.create cfg in
    let addr = Dsm.alloc h ~block_size:64 ~home:1 64 in
    let m = Dsm.machine h in
    let line = Shasta_mem.Layout.line_of m.Machine.layout addr in
    Array.iter
      (fun ns -> ST.set ns.Machine.table line ST.Invalid)
      m.Machine.nodes;
    ST.set m.Machine.nodes.(shared_node).Machine.table line ST.Shared;
    Image.store_float m.Machine.nodes.(shared_node).Machine.image addr 1.0;
    ST.set m.Machine.nodes.(exclusive_node).Machine.table line ST.Exclusive;
    Image.store_float m.Machine.nodes.(exclusive_node).Machine.image addr 2.0;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "exclusive@%d over shared@%d" exclusive_node shared_node)
      2.0 (Dsm.peek_float h addr)
  in
  (* Shared encountered before the Exclusive copy, and after it. *)
  check_order ~exclusive_node:2 ~shared_node:0;
  check_order ~exclusive_node:0 ~shared_node:2

(* Water-Sp under Base deadlocked on the forward-vs-upgrade busy queue. *)
let water_sp_base () =
  let inst = Shasta_apps.Water_sp.instance () in
  let cfg = Config.create ~variant:Config.Base ~nprocs:8 () in
  let h = Dsm.create cfg in
  let body, verify = inst.App.setup h in
  Dsm.run h body;
  let v = verify h in
  Alcotest.(check bool) v.App.detail true v.App.ok

let () =
  Alcotest.run "regressions"
    [
      ( "historical counterexamples",
        [
          Alcotest.test_case "counters cl1 nc2 seed126 (flag-skip)" `Quick
            (counters ~variant:Config.Base ~clustering:1 ~ncounters:2 ~rounds:8
               ~seed:126);
          Alcotest.test_case "counters smp cl1 nc2 seed90" `Quick
            (counters ~variant:Config.Smp ~clustering:1 ~ncounters:2 ~rounds:23
               ~seed:90);
          Alcotest.test_case "phased smp16 cl4 bs64 seed5911 (inline inval)"
            `Quick
            (phased ~variant:Config.Smp ~nprocs:16 ~clustering:4 ~block_size:64
               ~nslots:32 ~nphases:4 ~seed:5911);
          Alcotest.test_case "phased smp8 cl4 bs512 seed2658 (requester ack)"
            `Quick
            (phased ~variant:Config.Smp ~nprocs:8 ~clustering:4 ~block_size:512
               ~nslots:62 ~nphases:5 ~seed:2658);
          Alcotest.test_case "batched cl2 bs64 seed709 (private raise in pdg)"
            `Quick
            (batched ~clustering:2 ~block_size:64 ~nslots:16 ~nphases:3 ~seed:709);
          Alcotest.test_case "peek prefers exclusive copy" `Quick
            peek_prefers_exclusive;
          Alcotest.test_case "directory smp8 cl4 seed7787 (stale inval)"
            `Quick (directory ~seed:7787);
          Alcotest.test_case "water-nsq vg smp-16x4 (store merge family)"
            `Slow water_nsq_vg;
          Alcotest.test_case "water-sp base-8 (fwd deadlock)" `Slow water_sp_base;
        ] );
    ]
