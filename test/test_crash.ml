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
module Network = Shasta_net.Network
module Bitset = Shasta_util.Bitset
module Directory = Shasta_core.Directory
module Miss_table = Shasta_core.Miss_table

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
      on_event =
        (fun e ->
          match e.Shasta_core.Event.payload with
          | State { node = 0; block; to_ = Exclusive; _ } when block = x ->
            t_excl := e.time
          | _ -> ());
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

(* The contract read back through the protocol. A 16-byte block homed
   at processor 0 holds 7 in word 0; processor 1's store to word 1
   fetches it, and the home stamps its own copy as its data reply
   leaves. A checkpoint taken every cycle snapshots at that very send.
   Node 0 dies while the reply is in flight, so every copy of the block
   dies with it: processor 1, now the block's home, must read 7 back
   under [Ckpt], and sharer-pull recovery must raise the typed
   [Data_loss]. *)
let base3 () =
  Config.create ~variant:Config.Base ~nprocs:3 ~procs_per_node:1
    ~heap_bytes:(64 * 1024) ~sanitize:1 ()

let read_back_instance () =
  let h = Dsm.create (base3 ()) in
  let x = Dsm.alloc h ~home:0 16 in
  Dsm.poke_int h x 7;
  let got = ref (-1) in
  let body ctx =
    if Dsm.pid ctx = 1 then begin
      Dsm.store_int ctx (x + 8) 5;
      got := Dsm.load_int ctx x
    end
  in
  (h, x, body, got)

let test_recover_data_read_back () =
  (* dry run: when the home's data reply leaves, and when it lands *)
  let h, x, body, _ = read_back_instance () in
  let sent = ref (-1) and landed = ref (-1) in
  Dsm.add_observer h
    {
      Observer.nil with
      Observer.on_send =
        (fun ~src ~dst:_ ~now msg ->
          match msg with
          | Msg.Data_reply { block; _ } when src = 0 && block = x -> sent := now
          | _ -> ());
      on_recv =
        (fun ~src ~dst:_ ~now msg ->
          match msg with
          | Msg.Data_reply { block; _ } when src = 0 && block = x ->
            landed := now
          | _ -> ());
    };
  Dsm.run_controlled ~choose:default_choose h body;
  Alcotest.(check bool) "the home's data reply was harvested" true (!sent > 0);
  List.iter
    (fun off ->
      let at = !sent + off in
      Alcotest.(check bool)
        (Printf.sprintf "crash at %d lands while the reply is in flight" at)
        true (at < !landed);
      let h, x, body, got = read_back_instance () in
      let ckpt = Checkpoint.attach (Dsm.machine h) ~interval:1 in
      Dsm.run_controlled ~choose:default_choose
        ~events:[ Crash.with_checkpoint h ~node:0 ~at ~ckpt ]
        h body;
      Alcotest.(check int)
        (Printf.sprintf "ckpt crash at %d reads back" at)
        7 !got;
      let m = Dsm.machine h in
      Alcotest.(check bool)
        (Printf.sprintf "ckpt crash at %d: processor 1 holds it Exclusive" at)
        true
        (State_table.get m.Machine.nodes.(1).Machine.table
           (Layout.line_of m.Machine.layout x)
        = State_table.Exclusive);
      let h, _, body, _ = read_back_instance () in
      match
        Dsm.run_controlled ~choose:default_choose
          ~events:[ Crash.kill h ~node:0 ~at ]
          h body
      with
      | () -> Alcotest.failf "pull crash at %d: no Data_loss" at
      | exception (Recover.Recovery_violation _ as e) ->
        Alcotest.(check bool)
          (Printf.sprintf "pull crash at %d: %s" at (Printexc.to_string e))
          true
          (is_data_loss (Printexc.to_string e)))
    [ 1; 100; 1000 ]

(* A crash between a read reply and its sharing write-back. Processor 0
   holds the block Exclusive on the home's node; processor 2's read
   makes it downgrade, reply to processor 2 and write back to the home,
   processor 1, which is computing and has not handled the write-back
   when node 1 dies. The directory does not name processor 2 yet, but
   the write-back does: the block is affected, or the write-back would
   add a dead sharer and processor 1's store would wait forever for
   its invalidation ack. The program has no synchronization, which
   would poll inside that window, so it races by design: only the
   sanitizer is attached. *)
let sharing_wb_instance () =
  let h = Dsm.create (make_cfg ()) in
  let x = Dsm.alloc h ~home:1 8 in
  let got = ref (-1) in
  let body ctx =
    match Dsm.pid ctx with
    | 0 -> Dsm.store_int ctx x 7
    | 1 ->
      for _ = 1 to 150 do
        Dsm.compute ctx 25
      done;
      Dsm.compute ctx 50_000;
      Dsm.store_int ctx x 9;
      got := Dsm.load_int ctx x
    | 2 ->
      Dsm.compute ctx 300;
      ignore (Dsm.load_int ctx x)
    | _ -> ()
  in
  (h, x, body, got)

let test_crash_before_sharing_wb () =
  let h, x, body, _ = sharing_wb_instance () in
  let replied = ref (-1) and written_back = ref (-1) in
  Dsm.add_observer h
    {
      Observer.nil with
      Observer.on_recv =
        (fun ~src:_ ~dst ~now msg ->
          match msg with
          | Msg.Data_reply { block; _ } when dst = 2 && block = x ->
            replied := now
          | Msg.Sharing_wb { block; _ } when block = x -> written_back := now
          | _ -> ());
    };
  Dsm.run_controlled ~choose:default_choose h body;
  let at = !replied + 1 in
  Alcotest.(check bool) "the crash falls between reply and write-back" true
    (!replied > 0 && at < !written_back);
  List.iter
    (fun ckpt ->
      let h, _, body, got = sharing_wb_instance () in
      let m = Dsm.machine h in
      let san = Sanitizer.attach m in
      let event =
        if ckpt then
          Crash.with_checkpoint h ~node:1 ~at
            ~ckpt:(Checkpoint.attach m ~interval:512)
        else Crash.kill h ~node:1 ~at
      in
      let what = Printf.sprintf "crash before the write-back (ckpt %b)" ckpt in
      (try Dsm.run_controlled ~choose:default_choose ~events:[ event ] h body
       with Engine.Cycle_limit p ->
         Alcotest.failf "%s: processor %d hit the cycle limit" what p);
      Alcotest.(check int) (what ^ ": sanitizer clean") 0
        (Sanitizer.violation_count san);
      Alcotest.(check int) (what ^ ": post-run invariants") 0
        (List.length (Inspect.report m));
      Alcotest.(check int) (what ^ ": processor 1 reads its store") 9 !got)
    [ false; true ]

(* Recovery's per-block decisions on hand-built survivor state: three
   Base nodes, and node 0 dies. Every block's directory or traffic names
   processor 0, so every block is affected.
   - x (home 1): node 2's read miss had an invalidation race with its
     reply. The restarted entry forgets it, since the re-requested data
     is fresh.
   - y (home 1): node 2's read-exclusive miss has its data and awaits
     an ack from processor 0. It restarts as an upgrade.
   - z (home 2): nodes 1 and 2 share the block and the dead processor
     owned it. The home node's copy becomes the owner. *)
let test_rebuild_decisions () =
  let cfg =
    Config.create ~variant:Config.Base ~nprocs:3 ~procs_per_node:1
      ~heap_bytes:(64 * 1024) ~sanitize:0 ()
  in
  let h = Dsm.create cfg in
  let m = Dsm.machine h in
  (* a page each, so that each keeps its own home *)
  let x = Dsm.alloc h ~home:1 4096 in
  let y = Dsm.alloc h ~home:1 4096 in
  let z = Dsm.alloc h ~home:2 4096 in
  let node n = m.Machine.nodes.(n) in
  let set_block n b st ~pending =
    let first, len = Machine.lines_of_block m b in
    for l = first to first + len - 1 do
      State_table.set (node n).Machine.table l st;
      State_table.set_pending (node n).Machine.table l pending
    done
  in
  let dir b ~home ~owner sharers =
    let e = Directory.entry m.Machine.dirs.(home) ~block:b ~home in
    e.Directory.owner <- owner;
    e.Directory.sharers <- Bitset.of_list sharers
  in
  let miss b kind =
    Miss_table.add (node 2).Machine.misses ~block:b ~requester:2 ~kind ~now:0
  in
  set_block 1 x State_table.Shared ~pending:false;
  set_block 2 x State_table.Invalid ~pending:true;
  dir x ~home:1 ~owner:1 [ 0; 1 ];
  let mx = miss x Msg.Read in
  mx.Miss_table.inval_after_reply <- true;
  set_block 1 y State_table.Invalid ~pending:false;
  set_block 2 y State_table.Exclusive ~pending:false;
  dir y ~home:1 ~owner:2 [ 2 ];
  let my = miss y Msg.Readex in
  my.Miss_table.data_ready <- true;
  my.Miss_table.acks_expected <- 1;
  Network.send m.Machine.net ~src:0 ~dst:2 ~now:0 ~size:0
    (Msg.Inval_ack { block = y });
  set_block 1 z State_table.Shared ~pending:false;
  set_block 2 z State_table.Shared ~pending:false;
  dir z ~home:2 ~owner:0 [ 0; 1; 2 ];
  Recover.rebuild m ~node:0 ~mode:Recover.Pull ~kill:ignore ~now:0;
  Alcotest.(check bool) "x: the invalidation race is forgotten" false
    mx.Miss_table.inval_after_reply;
  Alcotest.(check bool) "y: restarts as an upgrade" true
    (my.Miss_table.kind = Msg.Upgrade && not my.Miss_table.data_ready);
  Alcotest.(check bool) "y: pending again" true
    (State_table.pending (node 2).Machine.table
       (Layout.line_of m.Machine.layout y));
  let reqs = ref [] in
  Network.iter_queued m.Machine.net ~dst:1 (fun ~src ~arrival:_ msg ->
      reqs := (src, msg) :: !reqs);
  Alcotest.(check bool) "x and y re-request from the home" true
    (List.mem (2, Msg.Req { kind = Msg.Read; block = x }) !reqs
    && List.mem (2, Msg.Req { kind = Msg.Upgrade; block = y }) !reqs);
  let ez = Directory.entry m.Machine.dirs.(2) ~block:z ~home:2 in
  Alcotest.(check (pair int (list int))) "z: the home node owns, both share"
    (2, [ 1; 2 ])
    (ez.Directory.owner, Bitset.elements ez.Directory.sharers)

(* A crash event fires at the same cycle under [Dsm.run] as under the
   always-yield scheduler. Processor 2 computes, then loads a block homed
   at processor 1 while node 0 dies. *)
let test_events_fire_on_time () =
  let observe ~run_ahead ~at ~compute =
    let h = Dsm.create (base3 ()) in
    let x = Dsm.alloc h ~home:1 8 in
    let fired = ref (-1) in
    let at, crash = Crash.kill h ~node:0 ~at in
    let event ~kill ~now =
      fired := now;
      crash ~kill ~now
    in
    Dsm.run ~run_ahead ~events:[ (at, event) ] h (fun ctx ->
        if Dsm.pid ctx = 2 then begin
          Dsm.compute ctx compute;
          ignore (Dsm.load_int ctx x)
        end);
    (* the event's cycle, then the run's cycles and messages *)
    [
      !fired;
      Dsm.parallel_cycles h;
      Dsm.messages_local h;
      Dsm.messages_remote h;
    ]
  in
  List.iter
    (fun (at, compute) ->
      Alcotest.(check (list int))
        (Printf.sprintf "crash at %d, processor 2 computes %d" at compute)
        (observe ~run_ahead:false ~at ~compute)
        (observe ~run_ahead:true ~at ~compute))
    [ (5_000, 3_000); (5_000, 4_000); (2_000, 100); (8_000, 3_000) ]

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
          Alcotest.test_case "crash before a sharing write-back" `Quick
            test_crash_before_sharing_wb;
          Alcotest.test_case "crash events fire on time" `Quick
            test_events_fire_on_time;
          Alcotest.test_case "rebuild decisions on hand-built state" `Quick
            test_rebuild_decisions;
        ] );
      ( "checkpoint-properties",
        [
          Alcotest.test_case "recover_data is total" `Quick
            test_recover_data_total;
          Alcotest.test_case "restores the coherent copy" `Quick
            test_recover_data_coherent;
          Alcotest.test_case "restores the newest logged reply" `Quick
            test_recover_data_newest;
          Alcotest.test_case "reads back a reply in flight at the snapshot"
            `Quick test_recover_data_read_back;
        ] );
    ]
