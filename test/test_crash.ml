(* Crash-scenario test matrix: node crashes as first-class events,
   recovery proven clean (or failing with the typed
   [Recovery_violation]) under the full sanitizer battery — the online
   invariant sanitizer plus the happens-before race detector, i.e. the
   SHASTA_SANITIZE=2 configuration.

   Four targeted situations from the issue matrix:
   - a crash landing during an in-flight intra-node downgrade,
   - a crash of a block's home node while a remote node holds the only
     (Exclusive) copy,
   - a crash of a processor holding a per-bucket KV-style lock,
   - a crash between a checkpoint and the log tail, where sharer-pull
     recovery must raise the typed [Data_loss] and checkpoint + log
     recovery must recover clean.

   Plus two checks of [Checkpoint.recover_data] over fuzz-scheduled
   litmus runs: it returns a block-sized copy for every allocated block
   (and nothing for an address no block starts at), and on a quiescent
   machine it returns the bytes every valid copy of the block holds. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module Machine = Shasta_core.Machine
module Inspect = Shasta_core.Inspect
module Msg = Shasta_core.Msg
module Observer = Shasta_core.Observer
module Engine = Shasta_sim.Engine
module Sanitizer = Shasta_check.Sanitizer
module Races = Shasta_check.Races
module Litmus = Shasta_check.Litmus
module Checkpoint = Shasta_recover.Checkpoint
module Recover = Shasta_recover.Recover
module Crash = Shasta_recover.Crash
module Prng = Shasta_util.Prng
module Image = Shasta_mem.Image
module Layout = Shasta_mem.Layout
module State_table = Shasta_mem.State_table

let default_choose (cands : int array) = cands.(0)

let random_choose seed =
  let prng = Prng.create (0x5eed + (seed * 2654435761)) in
  fun (cands : int array) -> cands.(Prng.int prng (Array.length cands))

(* The litmus geometry with the full checker battery requested in the
   config (the checkers themselves are attached per run below, exactly
   as the experiment runner does for SHASTA_SANITIZE=2). *)
let make_cfg () =
  Config.create ~variant:Smp ~nprocs:4 ~procs_per_node:2 ~clustering:2
    ~heap_bytes:(64 * 1024) ~max_cycles:2_000_000 ~sanitize:2 ()

let find_scenario name =
  List.find (fun s -> s.Litmus.name = name) Litmus.scenarios

(* Outcome of one crash run: [Clean] recovered with every checker
   silent, [Typed] failed with the typed recovery exception, [Bad]
   anything else (always a test failure). *)
type outcome = Clean | Typed of string | Bad of string

let is_data_loss what =
  String.length what >= 27
  && String.sub what 0 27 = "Recovery_violation (Data_lo"

(* Run [body] on [h] under the default schedule with a crash of [node]
   scheduled at cycle [at]; [ckpt_interval > 0] selects checkpoint +
   log recovery. [check ~live] is the crash-aware outcome
   predicate. The sanitizer and the race detector are attached to every
   run and any noise from them is a failure. *)
let crash_run ?(choose = default_choose) ?(ckpt_interval = 0) ~node ~at h body
    check =
  let m = Dsm.machine h in
  let san = Sanitizer.attach m in
  let rd = Races.attach m in
  let events =
    if ckpt_interval > 0 then
      let ckpt = Checkpoint.attach m ~interval:ckpt_interval in
      [ Crash.with_checkpoint h ~node ~at ~ckpt ]
    else [ Crash.kill h ~node ~at ]
  in
  try
    Dsm.run_controlled ~choose ~events h body;
    if Sanitizer.violation_count san > 0 then
      Bad
        ("sanitizer: "
        ^ String.concat "; "
            (List.map Inspect.describe (Sanitizer.violations san)))
    else if Races.race_count rd > 0 then
      Bad ("race: " ^ Races.describe (List.hd (Races.races rd)))
    else
      match Inspect.report m with
      | v :: _ -> Bad ("post-run invariants: " ^ Inspect.describe v)
      | [] -> (
        if m.Machine.crashes = 0 then Bad "crash event never fired"
        else
          match check ~live:(fun p -> not m.Machine.dead.(p)) with
          | Some what -> Bad ("outcome: " ^ what)
          | None -> Clean)
  with
  | Recover.Recovery_violation _ as e -> Typed (Printexc.to_string e)
  | Engine.Cycle_limit p ->
    Bad (Printf.sprintf "livelock: processor %d hit the cycle limit" p)

(* ------------------------------------------------------------------ *)
(* 1. Crash during an in-flight intra-node downgrade: harvest the
   downgrade-send clocks of the lock-counter default schedule (the one
   built-in scenario that drives intra-node downgrade messages without
   schedule deviations) and kill the downgrading node one cycle after
   each send, in both recovery modes. *)

let test_crash_inflight_downgrade () =
  let sc = find_scenario "lock-counter" in
  let inst = sc.Litmus.make ~fault:None in
  let m = Dsm.machine inst.Litmus.handle in
  let placements = ref [] in
  Machine.add_observer m
    {
      Observer.nil with
      Observer.on_send =
        (fun ~src:_ ~dst ~now msg ->
          match msg with
          | Msg.Downgrade _ ->
            placements := (Machine.node_of m dst, now) :: !placements
          | _ -> ());
    };
  Dsm.run_controlled ~choose:default_choose inst.Litmus.handle
    inst.Litmus.body;
  let placements = List.sort_uniq compare !placements in
  Alcotest.(check bool)
    "default schedule drives at least one intra-node downgrade" true
    (placements <> []);
  List.iter
    (fun (node, c) ->
      List.iter
        (fun ckpt_interval ->
          let inst = sc.Litmus.make ~fault:None in
          match
            crash_run ~ckpt_interval ~node ~at:(c + 1) inst.Litmus.handle
              inst.Litmus.body inst.Litmus.crash_final
          with
          | Clean -> ()
          | Typed what when ckpt_interval = 0 && is_data_loss what -> ()
          | Typed what | Bad what ->
            Alcotest.failf
              "crash node %d at %d (mid-downgrade, ckpt %d): %s" node (c + 1)
              ckpt_interval what)
        [ 0; 512 ])
    placements

(* ------------------------------------------------------------------ *)
(* 2. Crash of the home node while a remote node holds the only
   Exclusive copy: the block must be re-homed to a survivor with its
   bytes preserved exactly (no rollback — a live copy exists). *)

let home_crash_instance () =
  let h = Dsm.create (make_cfg ()) in
  let x = Dsm.alloc h ~home:2 8 in
  let b0 = Dsm.alloc_barrier h in
  let got = Array.make 4 (-1) in
  let body ctx =
    let p = Dsm.pid ctx in
    if p = 0 then Dsm.store_int ctx x 7;
    Dsm.barrier ctx b0;
    got.(p) <- Dsm.load_int ctx x
  in
  (h, x, body, got)

let test_crash_home_with_remote_exclusive () =
  (* dry default run harvesting — in the engine's event timeline — the
     cycle at which node 0's copy turns Exclusive (a processor clock
     read after the store would still be mid-miss at the event clock) *)
  let h, x, body, _ = home_crash_instance () in
  let m = Dsm.machine h in
  let t_excl = ref (-1) in
  Machine.add_observer m
    {
      Observer.nil with
      Observer.on_state =
        (fun ~by:_ ~node ~block ~from_:_ ~to_ ~now ->
          if node = 0 && block = x && to_ = Shasta_mem.State_table.Exclusive
          then t_excl := now);
    };
  Dsm.run_controlled ~choose:default_choose h body;
  let at = !t_excl + 1 in
  Alcotest.(check bool) "exclusive-transition clock harvested" true (at > 0);
  List.iter
    (fun ckpt_interval ->
      let h, x, body, got = home_crash_instance () in
      let m = Dsm.machine h in
      let check ~live:_ =
        (* node 0's Exclusive copy survived: both live processors must
           read the stored value, never a rollback *)
        if got.(0) = 7 && got.(1) = 7 then None
        else
          Some (Printf.sprintf "live reads got p0=%d p1=%d" got.(0) got.(1))
      in
      (match crash_run ~ckpt_interval ~node:1 ~at h body check with
      | Clean -> ()
      | Typed what | Bad what ->
        Alcotest.failf "home crash (ckpt %d): %s" ckpt_interval what);
      Alcotest.(check bool)
        "block re-homed to a live processor" true
        (not m.Machine.dead.(Machine.home_of_block m x));
      Alcotest.(check int) "exactly one crash" 1 m.Machine.crashes;
      Alcotest.(check bool)
        "recovery charged machine-wide cycles" true
        (m.Machine.recovery_cycles >= 0))
    [ 0; 512 ]

(* ------------------------------------------------------------------ *)
(* 3. Crash while holding a per-bucket KV-style lock: processor 3 dies
   inside its critical section; the lock must pass to a live waiter
   (no livelock) and the bucket stays coherent for the survivors. *)

let kv_lock_instance () =
  let h = Dsm.create (make_cfg ()) in
  let x = Dsm.alloc h ~home:0 8 in
  let l = Dsm.alloc_lock h in
  let b0 = Dsm.alloc_barrier h in
  let got = Array.make 4 (-1) in
  let t_hold = ref (-1) in
  let body ctx =
    let p = Dsm.pid ctx in
    Dsm.lock ctx l;
    Dsm.store_int ctx x (Dsm.load_int ctx x + 1);
    if p = 3 then begin
      t_hold := Dsm.now ctx;
      (* keep the critical section open so a crash clock harvested here
         lands while the lock is held *)
      Dsm.compute ctx 500
    end;
    Dsm.unlock ctx l;
    Dsm.barrier ctx b0;
    got.(p) <- Dsm.load_int ctx x
  in
  (h, l, body, got, t_hold)

let test_crash_holding_kv_lock () =
  let h, _, body, _, t_hold = kv_lock_instance () in
  Dsm.run_controlled ~choose:default_choose h body;
  let at = !t_hold + 1 in
  Alcotest.(check bool) "holder clock harvested" true (at > 0);
  List.iter
    (fun ckpt_interval ->
      let h, l, body, got, _ = kv_lock_instance () in
      let m = Dsm.machine h in
      let check ~live:_ =
        (* both survivors read the bucket after the barrier with no
           writes in between: they must agree, and the count can never
           exceed the four increments *)
        if got.(0) <> got.(1) then
          Some (Printf.sprintf "survivors disagree: %d vs %d" got.(0) got.(1))
        else if got.(0) < 0 || got.(0) > 4 then
          Some (Printf.sprintf "impossible counter %d" got.(0))
        else None
      in
      (match crash_run ~ckpt_interval ~node:1 ~at h body check with
      | Clean -> ()
      | Typed what when ckpt_interval = 0 && is_data_loss what -> ()
      | Typed what | Bad what ->
        Alcotest.failf "lock-holder crash (ckpt %d): %s" ckpt_interval what);
      (* the dead holder must not still own the lock *)
      match Hashtbl.find_opt m.Machine.locks l with
      | None -> ()
      | Some ls ->
        Alcotest.(check bool)
          "lock not stuck with a dead holder" false
          (ls.Machine.held && m.Machine.dead.(ls.Machine.holder)))
    [ 0; 512 ]

(* ------------------------------------------------------------------ *)
(* 4. Crash between a checkpoint and the log tail: the only copy of a
   modified block dies with its node while a live processor has a
   demand miss outstanding for it. Sharer-pull recovery must refuse to
   fabricate bytes — the typed [Data_loss] — while checkpoint + log
   recovery must come back clean, restoring the block from
   the snapshot/log. The crash clock is swept across the miss window so
   at least one pull placement provably hits the loss. *)

let data_loss_instance () =
  let h = Dsm.create (make_cfg ()) in
  let x = Dsm.alloc h ~home:2 8 in
  let b0 = Dsm.alloc_barrier h in
  let got0 = ref (-1) in
  let t_req = ref (-1) in
  let body ctx =
    let p = Dsm.pid ctx in
    if p = 2 then Dsm.store_int ctx x 5;
    Dsm.barrier ctx b0;
    (* keep a survivor generating scheduling points through the miss
       window so the crash event can fire mid-miss *)
    if p = 1 then Dsm.compute ctx 2_000;
    if p = 0 then got0 := Dsm.load_int ctx x
  in
  (h, x, body, got0, t_req)

let data_loss_harvest () =
  let h, x, body, _, t_req = data_loss_instance () in
  let m = Dsm.machine h in
  Machine.add_observer m
    {
      Observer.nil with
      Observer.on_send =
        (fun ~src ~dst:_ ~now msg ->
          if src = 0 && !t_req < 0 && Msg.block_of msg = Some x then
            t_req := now);
    };
  Dsm.run_controlled ~choose:default_choose h body;
  !t_req

let test_crash_checkpoint_log_tail () =
  let t_req = data_loss_harvest () in
  Alcotest.(check bool) "demand-miss request clock harvested" true
    (t_req >= 0);
  let window = List.init 6 (fun i -> t_req + 1 + (i * 10)) in
  (* pull mode: every placement recovers clean or raises the typed
     Data_loss, and at least one placement in the window hits it *)
  let losses = ref 0 in
  List.iter
    (fun at ->
      let h, _, body, got0, _ = data_loss_instance () in
      let check ~live:_ =
        if !got0 = 5 || !got0 = 0 || !got0 = -1 then None
        else Some (Printf.sprintf "p0 read fabricated value %d" !got0)
      in
      match crash_run ~node:1 ~at h body check with
      | Clean -> ()
      | Typed what when is_data_loss what -> incr losses
      | Typed what | Bad what ->
        Alcotest.failf "pull crash at %d: %s" at what)
    window;
  Alcotest.(check bool)
    "some pull placement hits the typed Data_loss" true (!losses > 0);
  (* ckpt mode: the same placements must all recover clean — the block
     comes back from the checkpoint plus the log tail *)
  List.iter
    (fun at ->
      let h, _, body, got0, _ = data_loss_instance () in
      let m = Dsm.machine h in
      let ckpt = Checkpoint.attach m ~interval:256 in
      let san = Sanitizer.attach m in
      let check () =
        if !got0 = 5 || !got0 = 0 then None
        else Some (Printf.sprintf "p0 read fabricated value %d" !got0)
      in
      (try
         Dsm.run_controlled ~choose:default_choose
           ~events:[ Crash.with_checkpoint h ~node:1 ~at ~ckpt ]
           h body
       with Recover.Recovery_violation _ as e ->
         Alcotest.failf "ckpt crash at %d lost data: %s" at
           (Printexc.to_string e));
      Alcotest.(check int)
        (Printf.sprintf "ckpt crash at %d: sanitizer clean" at)
        0
        (Sanitizer.violation_count san);
      (match Inspect.report m with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "ckpt crash at %d: post-run: %s" at
          (Inspect.describe v));
      (match check () with
      | None -> ()
      | Some what -> Alcotest.failf "ckpt crash at %d: %s" at what);
      (* the crash genuinely landed between a checkpoint and the log
         tail: the observer re-snapshotted at least once after the
         initial snapshot before the node died *)
      Alcotest.(check bool)
        (Printf.sprintf "ckpt crash at %d: a periodic snapshot preceded it"
           at)
        true
        (Checkpoint.snapshots ckpt >= 2))
    window

(* ------------------------------------------------------------------ *)
(* Checkpoint recovery data, over every litmus scenario under a few
   fuzzed schedules each. *)

let fuzz_seeds = [ 0; 1; 2; 3 ]

(* Run every scenario under every fuzz seed; [before] sees the machine
   ahead of the run, [after] once it is quiescent. *)
let sweep_fuzzed ~before ~after =
  List.iter
    (fun sc ->
      List.iter
        (fun seed ->
          let inst = sc.Litmus.make ~fault:None in
          let m = Dsm.machine inst.Litmus.handle in
          let x = before m in
          Dsm.run_controlled ~choose:(random_choose seed) inst.Litmus.handle
            inst.Litmus.body;
          after (Printf.sprintf "%s seed %d" sc.Litmus.name seed) m x)
        fuzz_seeds)
    Litmus.scenarios

let test_recover_data_total () =
  let max_snapshots = ref 0 in
  sweep_fuzzed
    ~before:(fun m -> Checkpoint.attach m ~interval:50)
    ~after:(fun what m ckpt ->
      max_snapshots := max !max_snapshots (Checkpoint.snapshots ckpt);
      Machine.iter_blocks m (fun b ->
          (match Checkpoint.recover_data ckpt ~block:b with
          | Some bytes ->
            Alcotest.(check int)
              (Printf.sprintf "%s: block %d recovers block-sized" what b)
              (Machine.block_size m b) (Bytes.length bytes)
          | None ->
            Alcotest.failf "%s: block %d unknown to the checkpoint" what b);
          Alcotest.(check bool)
            (Printf.sprintf "%s: address %d starts no block" what (b + 1))
            true
            (Checkpoint.recover_data ckpt ~block:(b + 1) = None)));
  Alcotest.(check bool)
    "some run re-snapshotted after the initial snapshot" true
    (!max_snapshots >= 2)

(* [recover_data] of a checkpoint taken on the quiescent machine [m]
   must equal every valid copy of every block. *)
let check_coherent what m =
  (match Inspect.report m with
  | v :: _ -> Alcotest.failf "%s: %s" what (Inspect.describe v)
  | [] -> ());
  let ckpt = Checkpoint.attach m ~interval:1 in
  Machine.iter_blocks m (fun b ->
      let line = Layout.line_of m.Machine.layout b in
      let got = Checkpoint.recover_data ckpt ~block:b in
      Array.iteri
        (fun n ns ->
          if State_table.get ns.Machine.table line <> State_table.Invalid then
            Alcotest.(check bool)
              (Printf.sprintf "%s: block %d equals node %d's valid copy" what b
                 n)
              true
              (got
              = Some
                  (Image.snapshot ns.Machine.image ~addr:b
                     ~len:(Machine.block_size m b))))
        m.Machine.nodes)

(* Every litmus end state, then runs in which each node's first
   processor stores to a block homed on the other node and nothing reads
   it back, so each block's only copy is Exclusive away from its home:
   recovery must read the owner's copy, not the home's. *)
let test_recover_data_coherent () =
  sweep_fuzzed
    ~before:(fun _ -> ())
    ~after:(fun what m () -> check_coherent what m);
  List.iter
    (fun seed ->
      let h = Dsm.create (make_cfg ()) in
      let m = Dsm.machine h in
      (* a whole page for [x], so [y] can be homed on its own page *)
      let x = Dsm.alloc h ~home:0 4096 in
      let y = Dsm.alloc h ~home:2 8 in
      let body ctx =
        match Dsm.pid ctx with
        | 0 -> Dsm.store_int ctx y 17
        | 2 -> Dsm.store_int ctx x 42
        | _ -> ()
      in
      Dsm.run_controlled ~choose:(random_choose seed) h body;
      let what = Printf.sprintf "remote writers seed %d" seed in
      List.iter
        (fun (b, home_node) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: home of block %d lost its copy" what b)
            true
            (State_table.get m.Machine.nodes.(home_node).Machine.table
               (Layout.line_of m.Machine.layout b)
            = State_table.Invalid))
        [ (x, 0); (y, 1) ];
      check_coherent what m)
    fuzz_seeds

(* The contract on restored bytes: a lost block holds the newest data
   reply logged since the snapshot. Processor 1's store fetches the
   block from its home (a reply carrying 0), and after the barrier
   processor 2's store fetches it from processor 1 (a reply carrying
   11); with no snapshot after the first, recovery must restore 11. *)
let test_recover_data_newest () =
  let cfg =
    Config.create ~variant:Config.Base ~nprocs:3 ~procs_per_node:1
      ~heap_bytes:(64 * 1024) ()
  in
  let h = Dsm.create cfg in
  let x = Dsm.alloc h ~home:0 8 in
  let bar = Dsm.alloc_barrier h in
  let ckpt = Checkpoint.attach (Dsm.machine h) ~interval:max_int in
  Dsm.run h (fun ctx ->
      if Dsm.pid ctx = 1 then Dsm.store_int ctx x 11;
      Dsm.barrier ctx bar;
      if Dsm.pid ctx = 2 then Dsm.store_int ctx x 22);
  Alcotest.(check int) "no snapshot after the initial one" 1
    (Checkpoint.snapshots ckpt);
  match Checkpoint.recover_data ckpt ~block:x with
  | None -> Alcotest.fail "block unknown to the checkpoint"
  | Some bytes ->
    Alcotest.(check int) "the newest logged reply's value" 11
      (Int64.to_int (Bytes.get_int64_le bytes 0))

let () =
  Alcotest.run "crash"
    [
      ( "matrix",
        [
          Alcotest.test_case "crash during in-flight downgrade" `Quick
            test_crash_inflight_downgrade;
          Alcotest.test_case "home crash with remote Exclusive copy" `Quick
            test_crash_home_with_remote_exclusive;
          Alcotest.test_case "crash while holding per-bucket lock" `Quick
            test_crash_holding_kv_lock;
          Alcotest.test_case "crash between checkpoint and log tail" `Quick
            test_crash_checkpoint_log_tail;
        ] );
      ( "checkpoint-properties",
        [
          Alcotest.test_case "recover_data is total" `Quick
            test_recover_data_total;
          Alcotest.test_case "restores the coherent copy" `Quick
            test_recover_data_coherent;
          Alcotest.test_case "restores the newest logged reply" `Quick
            test_recover_data_newest;
        ] );
    ]
