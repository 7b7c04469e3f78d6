module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Home_map = Shasta_mem.Home_map
module Bitset = Shasta_util.Bitset
module Network = Shasta_net.Network
module Machine = Shasta_core.Machine
module Config = Shasta_core.Config
module Timing = Shasta_core.Timing
module Msg = Shasta_core.Msg
module Directory = Shasta_core.Directory
module Miss_table = Shasta_core.Miss_table
module Downgrade = Shasta_core.Downgrade
module Inspect = Shasta_core.Inspect

type kind =
  | Data_loss of { block : int }
      (** every copy of the block's data died with the node and no
          checkpoint (or rescue donor) could supply it, while a live
          processor has a demand miss outstanding for it *)
  | Invariant of { detail : string }
      (** the post-recovery machine failed a liveness or coherence
          invariant (sanitizer-gated) *)

exception Recovery_violation of kind

type mode =
  | Pull  (** rebuild directory state from surviving sharers only *)
  | Ckpt of Checkpoint.t
      (** additionally restore lost data from the last checkpoint
          snapshot plus its message-log tail *)

let () =
  Printexc.register_printer (function
    | Recovery_violation (Data_loss { block }) ->
      Some (Printf.sprintf "Recovery_violation (Data_loss block 0x%x)" block)
    | Recovery_violation (Invariant { detail }) ->
      Some (Printf.sprintf "Recovery_violation (Invariant %s)" detail)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Small helpers over whole blocks (a block's lines always share one
   state — every protocol transition is block-granular).               *)

let set_block_state m tbl b st =
  let first, n = Machine.lines_of_block m b in
  for l = first to first + n - 1 do
    State_table.set tbl l st
  done

let set_block_pending m tbl b v =
  let first, n = Machine.lines_of_block m b in
  for l = first to first + n - 1 do
    State_table.set_pending tbl l v
  done

let clear_block_markers m tbl b =
  let first, n = Machine.lines_of_block m b in
  for l = first to first + n - 1 do
    State_table.set_pending tbl l false;
    State_table.set_pending_downgrade tbl l false;
    State_table.set_batch_marker tbl l false
  done

let block_state m tbl b =
  State_table.get tbl (Layout.line_of m.Machine.layout b)

(* ------------------------------------------------------------------ *)
(* Planned re-injections.

   Recovery never calls protocol handlers directly; it repairs tables
   and re-sends the minimal set of messages whose loss would strand a
   live processor, and lets the ordinary protocol re-execute them. The
   plan is collected first, then flushed in one deterministic batch. *)

type reinject = {
  rj_block : int;  (** -1 for synchronization messages *)
  rj_src : int;
  rj_dst : int;
  rj_msg : Msg.t;
}

type ctx = { m : Machine.t; now : int; mutable plan : reinject list }

let plan_send c ?(block = -1) ~src ~dst msg =
  c.plan <-
    { rj_block = block; rj_src = src; rj_dst = dst; rj_msg = msg } :: c.plan

(* The machine as the per-block recovery decisions ([Coherence.Recovery])
   see it: one processor's view of one block. It sets block state
   directly, charging no cycles and firing no observer hooks, and its
   sends join the plan. *)
type view = { c : ctx; pid : int; block : int }

module Substrate = struct
  type t = view

  let pid v = v.pid
  let block v = v.block
  let home v = Machine.home_of_block v.c.m v.block
  let node_of v q = Machine.node_of v.c.m q
  let node_procs v = Config.procs_of_node v.c.m.Machine.cfg (node_of v v.pid)
  let ns v = v.c.m.Machine.nodes.(node_of v v.pid)
  let base v = block_state v.c.m (ns v).Machine.table v.block
  let set_base v st = set_block_state v.c.m (ns v).Machine.table v.block st
  let set_pending v b = set_block_pending v.c.m (ns v).Machine.table v.block b
  let private_state v q = block_state v.c.m v.c.m.Machine.privates.(q) v.block

  let raise_private v q st =
    if State_table.rank (private_state v q) < State_table.rank st then
      set_block_state v.c.m v.c.m.Machine.privates.(q) v.block st

  let install v e data =
    Image.write_bytes (ns v).Machine.image ~addr:v.block
      ~skip:e.Miss_table.store_ranges data

  let restore v data =
    Image.write_bytes (ns v).Machine.image ~addr:v.block
      (match data with
      | Some bytes -> bytes
      | None -> Bytes.make (Machine.block_size v.c.m v.block) '\000')

  let dir v =
    let home = home v in
    Directory.entry v.c.m.Machine.dirs.(home) ~block:v.block ~home

  let miss v = Miss_table.find (ns v).Machine.misses ~block:v.block

  let open_miss v kind =
    Miss_table.add (ns v).Machine.misses ~block:v.block ~requester:v.pid ~kind
      ~now:v.c.now

  let retire v e =
    Miss_table.remove (ns v).Machine.misses e;
    Bitset.iter
      (fun p ->
        let q = v.c.m.Machine.procs.(p) in
        q.Machine.outstanding_stores <- q.Machine.outstanding_stores - 1)
      e.Miss_table.store_procs

  let downgrade v = Downgrade.find (ns v).Machine.downgrades ~block:v.block
  let transmit v dst msg = plan_send v.c ~block:v.block ~src:v.pid ~dst msg
  let mark _ _ = ()
end

module Blocks = Shasta_core.Coherence.Recovery (Substrate)

let rebuild m ~node ~mode ~kill ~now =
  let cfg = m.Machine.cfg in
  let layout = m.Machine.layout in
  let nprocs = cfg.Config.nprocs in
  let dead_pids = Config.procs_of_node cfg node in
  if m.Machine.dead_nodes.(node) then
    invalid_arg "Recover.rebuild: node already dead";
  if Machine.live_nodes m <= 1 then
    invalid_arg "Recover.rebuild: cannot crash the last live node";

  let c = { m; now; plan = [] } in
  let plan_send = plan_send c in
  let planned p = List.exists p c.plan in
  let dead p = m.Machine.dead.(p) in

  (* 1. Stop the node's processors: their continuations are dropped
     where they stand, exactly as a machine check drops a real node
     mid-instruction. No cleanup code runs on the dying side. *)
  List.iter kill dead_pids;

  (* 2-3. Mark the node dead machine-wide and quarantine its traffic. *)
  List.iter (fun p -> m.Machine.dead.(p) <- true) dead_pids;
  m.Machine.dead_nodes.(node) <- true;
  m.Machine.has_dead <- true;
  m.Machine.crashes <- m.Machine.crashes + 1;
  List.iter (fun p -> Network.mark_dead m.Machine.net p) dead_pids;

  (* 4-5. Harvest then discard every in-flight message with a dead
     endpoint: the harvest tells us which stranded synchronization
     operations the lost messages concerned. The block messages, lost
     or not, are kept by block for the affected test. *)
  let harvested = ref [] in
  let block_msgs = Hashtbl.create 64 in
  for dst = 0 to nprocs - 1 do
    Network.iter_queued m.Machine.net ~dst (fun ~src ~arrival:_ payload ->
        if dead src || dead dst then
          harvested := (src, dst, payload) :: !harvested;
        Option.iter
          (fun b -> Hashtbl.add block_msgs b (src, dst, payload))
          (Msg.block_of payload))
  done;
  let harvested = List.rev !harvested in
  ignore (Network.purge_dead m.Machine.net : int);

  (* 6. The affected set ([Coherence.Recovery.affected]). Only these
     blocks need surgery; everything else is untouched, so the surgery
     costs in proportion to the crash, not the heap. *)
  let live_nodes =
    List.filter
      (fun n -> not m.Machine.dead_nodes.(n))
      (List.init (Config.nnodes cfg) Fun.id)
  in
  let view ~pid block = { c; pid; block } in
  let live_views b =
    List.map
      (fun n -> view ~pid:(List.hd (Config.procs_of_node cfg n)) b)
      live_nodes
  in
  let all_blocks = ref [] in
  Machine.iter_blocks m (fun b -> all_blocks := b :: !all_blocks);
  let all_blocks = List.rev !all_blocks in
  let affected_blocks =
    List.filter
      (fun b ->
        let home = Machine.home_of_block m b in
        Blocks.affected ~dead ~live:(live_views b)
          ~msgs:(Hashtbl.find_all block_msgs b)
          ~dir:(Directory.find m.Machine.dirs.(home) ~block:b)
          (view ~pid:home b))
      all_blocks
  in
  let affected = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace affected b ()) affected_blocks;

  (* 7. Scrub the dead node: tables invalid, images flag-stamped (the
     bytes are gone), protocol tables emptied, its processors' per-proc
     state reset. *)
  let dead_ns = m.Machine.nodes.(node) in
  List.iter
    (fun b ->
      set_block_state m dead_ns.Machine.table b State_table.Invalid;
      clear_block_markers m dead_ns.Machine.table b;
      Image.write_invalid_flag dead_ns.Machine.image ~addr:b
        ~len:(Machine.block_size m b);
      List.iter
        (fun p -> set_block_state m m.Machine.privates.(p) b State_table.Invalid)
        dead_pids)
    all_blocks;
  Miss_table.clear dead_ns.Machine.misses;
  Downgrade.clear dead_ns.Machine.downgrades;
  Hashtbl.reset dead_ns.Machine.deferred_flags;
  Hashtbl.reset dead_ns.Machine.batch_lines;
  Hashtbl.reset dead_ns.Machine.batch_wranges;
  List.iter
    (fun p ->
      Directory.clear m.Machine.dirs.(p);
      let ps = m.Machine.procs.(p) in
      Hashtbl.reset ps.Machine.granted;
      Hashtbl.reset ps.Machine.barrier_seen;
      ps.Machine.finished <- true;
      ps.Machine.waiting_lock <- None;
      ps.Machine.waiting_barrier <- None)
    dead_pids;
  Hashtbl.reset m.Machine.barrier_local.(node);

  (* 8. Re-home dead-homed blocks: walk forward from the old home to the
     next live processor. All blocks of a page share a home, so the walk
     is per-page-stable and [set_home]'s page granularity is safe. *)
  let next_live_from p =
    let rec go k =
      if k = nprocs then invalid_arg "Recover.rebuild: no live processor"
      else
        let q = (p + k) mod nprocs in
        if dead q then go (k + 1) else q
    in
    go 1
  in
  List.iter
    (fun b ->
      let home = Machine.home_of_block m b in
      if dead home then
        Home_map.set_home m.Machine.homes layout ~addr:b
          ~len:(Machine.block_size m b) ~proc:(next_live_from home))
    affected_blocks;

  (* 9. Cancel the live-live in-flight messages about an affected block
     that the rebuild regenerates, and undo them at their senders. *)
  let cancelled =
    Network.purge_where m.Machine.net (fun ~src:_ ~dst:_ msg ->
        Blocks.cancels msg
        &&
        match Msg.block_of msg with
        | Some b -> Hashtbl.mem affected b
        | None -> false)
  in
  List.iter
    (fun (src, _dst, msg) ->
      Option.iter
        (fun b -> Blocks.unsend (view ~pid:src b) msg)
        (Msg.block_of msg))
    cancelled;

  (* 10-11. Rebuild each affected block at its (possibly new) home:
     restart the survivors' transactions, rebuild the directory entry,
     restore a block whose every copy died, and plan the re-requests. *)
  List.iter
    (fun b ->
      let data () =
        match mode with
        | Pull -> None
        | Ckpt ck -> Checkpoint.recover_data ck ~block:b
      in
      match
        Blocks.rebuild ~live:(live_views b) ~at:(fun pid -> view ~pid b) ~data
          (view ~pid:(Machine.home_of_block m b) b)
      with
      | `Rebuilt -> ()
      | `Lost -> raise (Recovery_violation (Data_loss { block = b })))
    affected_blocks;

  (* 12a. Re-route stranded synchronization traffic. Lock and barrier
     manager state lives in global tables that survive the manager's
     death — a dead manager is purely a lost-messages problem, and
     [Machine.lock_home]/[barrier_home] already fail over to the next
     live processor. Requests that were in flight to the dead manager
     are re-sent there; grants and releases the dead manager had in
     flight to live processors are re-sent from the new manager. *)
  List.iter
    (fun (src, dst, msg) ->
      let src_live = not (dead src) and dst_live = not (dead dst) in
      match msg with
      | Msg.Lock_req { lock } when src_live && not dst_live ->
        plan_send ~src ~dst:(Machine.lock_home m lock) msg
      | Msg.Lock_release { lock } when src_live && not dst_live ->
        plan_send ~src ~dst:(Machine.lock_home m lock) msg
      | Msg.Barrier_arrive { barrier } when src_live && not dst_live ->
        plan_send ~src ~dst:(Machine.barrier_home m barrier) msg
      | Msg.Lock_grant { lock } when dst_live && not src_live ->
        plan_send ~src:(Machine.lock_home m lock) ~dst msg
      | Msg.Barrier_release { barrier; _ } when dst_live && not src_live ->
        plan_send ~src:(Machine.barrier_home m barrier) ~dst msg
      | _ -> ())
    harvested;

  (* The in-flight picture after all purges, for the stranded-waiter
     checks below. *)
  let inflight = ref [] in
  for dst = 0 to nprocs - 1 do
    Network.iter_queued m.Machine.net ~dst (fun ~src ~arrival:_ payload ->
        inflight := (src, dst, payload) :: !inflight)
  done;
  let inflight = !inflight in

  (* 12b. Lock surgery: drop dead waiters; a dead holder's lock passes
     to the oldest live waiter exactly as a release would have granted
     it; a live waiter with no trace of its request anywhere (state,
     wire, or plan) lost it to the purge and re-issues. *)
  let locks =
    Hashtbl.fold (fun id ls acc -> (id, ls) :: acc) m.Machine.locks []
    |> List.sort compare
  in
  List.iter
    (fun (id, ls) ->
      ls.Machine.lock_queue <-
        List.filter (fun p -> not (dead p)) ls.Machine.lock_queue;
      if ls.Machine.held && dead ls.Machine.holder then begin
        let holder = Machine.hand_off_lock ls in
        if holder >= 0 then
          plan_send ~src:(Machine.lock_home m id) ~dst:holder
            (Msg.Lock_grant { lock = id })
      end)
    locks;
  for p = 0 to nprocs - 1 do
    if not (dead p) then begin
      let ps = m.Machine.procs.(p) in
      match ps.Machine.waiting_lock with
      | None -> ()
      | Some l ->
        let ls = Hashtbl.find m.Machine.locks l in
        let accounted =
          (ls.Machine.held && ls.Machine.holder = p)
          || List.mem p ls.Machine.lock_queue
          || Hashtbl.mem ps.Machine.granted l
          || List.exists
               (fun (src, _, msg) -> src = p && msg = Msg.Lock_req { lock = l })
               inflight
          || List.exists
               (fun (_, dst, msg) -> dst = p && msg = Msg.Lock_grant { lock = l })
               inflight
          || planned (fun r ->
                 (r.rj_src = p && r.rj_msg = Msg.Lock_req { lock = l })
                 || (r.rj_dst = p && r.rj_msg = Msg.Lock_grant { lock = l }))
        in
        if not accounted then
          plan_send ~src:p ~dst:(Machine.lock_home m l)
            (Msg.Lock_req { lock = l })
    end
  done;

  (* 12c. Barrier surgery. Dead arrivals are subtracted; if the
     surviving arrivals now satisfy the (live) expected count the
     episode releases here, exactly as the manager would have. Then
     stranded live waiters: a waiter the manager has not heard from and
     whose arrival is not on the wire re-arrives; a waiter whose episode
     already released but whose release message died gets the release
     re-sent. Crashes take out whole nodes, so hierarchical intra-node
     combining is never split — only whole-node arrivals and releases
     can be lost. *)
  let hierarchical = Machine.hierarchical_barriers m in
  let barriers =
    Hashtbl.fold (fun id bs acc -> (id, bs) :: acc) m.Machine.barriers []
    |> List.sort compare
  in
  List.iter
    (fun (id, bs) ->
      bs.Machine.arrived_procs <-
        List.filter (fun p -> not (dead p)) bs.Machine.arrived_procs;
      bs.Machine.arrived <- List.length bs.Machine.arrived_procs;
      List.iter
        (fun (dst, msg) ->
          plan_send ~src:(Machine.barrier_home m id) ~dst msg)
        (Machine.release_barrier m bs ~barrier:id))
    barriers;
  let arrive_inflight pred =
    List.exists
      (fun (src, _, msg) ->
        match msg with Msg.Barrier_arrive _ -> pred src msg | _ -> false)
      inflight
    || planned (fun r ->
           match r.rj_msg with Msg.Barrier_arrive _ -> pred r.rj_src r.rj_msg | _ -> false)
  in
  let release_inflight pred =
    List.exists
      (fun (_, dst, msg) ->
        match msg with Msg.Barrier_release _ -> pred dst msg | _ -> false)
      inflight
    || planned (fun r ->
           match r.rj_msg with
           | Msg.Barrier_release _ -> pred r.rj_dst r.rj_msg
           | _ -> false)
  in
  if hierarchical then
    for n = 0 to Config.nnodes cfg - 1 do
      if not m.Machine.dead_nodes.(n) then begin
        let node_pids = Config.procs_of_node cfg n in
        let head = List.hd node_pids in
        let waiting_ids =
          List.filter_map
            (fun p -> m.Machine.procs.(p).Machine.waiting_barrier)
            node_pids
          |> List.sort_uniq compare
        in
        List.iter
          (fun b ->
            let bs = Hashtbl.find m.Machine.barriers b in
            let lbs =
              Hashtbl.find_opt m.Machine.barrier_local.(n) b
              |> Option.value
                   ~default:{ Machine.arrived = 0; generation = 0; arrived_procs = [] }
            in
            let is_b = function
              | Msg.Barrier_arrive { barrier } | Msg.Barrier_release { barrier; _ } ->
                barrier = b
              | _ -> false
            in
            if
              bs.Machine.generation > lbs.Machine.generation
              && not (release_inflight (fun dst msg -> dst = head && is_b msg))
            then
              plan_send ~src:(Machine.barrier_home m b) ~dst:head
                (Msg.Barrier_release
                   { barrier = b; generation = bs.Machine.generation })
            else if
              lbs.Machine.arrived = 0
              && (not
                    (List.exists
                       (fun p -> List.mem p node_pids)
                       bs.Machine.arrived_procs))
              && not
                   (arrive_inflight (fun src msg -> List.mem src node_pids && is_b msg))
            then
              plan_send ~src:head ~dst:(Machine.barrier_home m b)
                (Msg.Barrier_arrive { barrier = b }))
          waiting_ids
      end
    done
  else
    for p = 0 to nprocs - 1 do
      if not (dead p) then begin
        let ps = m.Machine.procs.(p) in
        match ps.Machine.waiting_barrier with
        | None -> ()
        | Some b ->
          let bs = Hashtbl.find m.Machine.barriers b in
          let seen =
            Option.value ~default:0 (Hashtbl.find_opt ps.Machine.barrier_seen b)
          in
          let is_b = function
            | Msg.Barrier_arrive { barrier } | Msg.Barrier_release { barrier; _ } ->
              barrier = b
            | _ -> false
          in
          if bs.Machine.generation > seen then begin
            if not (release_inflight (fun dst msg -> dst = p && is_b msg)) then
              plan_send ~src:(Machine.barrier_home m b) ~dst:p
                (Msg.Barrier_release
                   { barrier = b; generation = bs.Machine.generation })
          end
          else if
            (not (List.mem p bs.Machine.arrived_procs))
            && not (arrive_inflight (fun src msg -> src = p && is_b msg))
          then
            plan_send ~src:p ~dst:(Machine.barrier_home m b)
              (Msg.Barrier_arrive { barrier = b })
      end
    done;

  (* Flush the plan: one deterministic batch of re-sent messages. Each
     costs a remote send of recovery time (charged to the machine-wide
     recovery counter, not to any processor's clock — the dead node's
     failover hardware does this work in the model). *)
  let to_send =
    List.rev c.plan
    |> List.stable_sort (fun a b ->
           compare
             (a.rj_block, a.rj_src, a.rj_dst, Msg.tag a.rj_msg)
             (b.rj_block, b.rj_src, b.rj_dst, Msg.tag b.rj_msg))
  in
  (* These sends need no [Engine.sent], unlike the protocol's, only
     because a run with crash events is always-yield: no destination
     can be asleep or frozen, and no horizon runs ahead. *)
  List.iter
    (fun r ->
      Network.send m.Machine.net ~src:r.rj_src ~dst:r.rj_dst ~now
        ~size:(Msg.size_bytes r.rj_msg) r.rj_msg;
      match m.Machine.observer with
      | None -> ()
      | Some o -> o.Shasta_core.Observer.on_send ~src:r.rj_src ~dst:r.rj_dst ~now r.rj_msg)
    to_send;
  m.Machine.recovery_cycles <-
    m.Machine.recovery_cycles
    + (List.length to_send * cfg.Config.timing.Timing.remote_send);

  (* 13. Verify (sanitizer-gated): every surviving in-flight endpoint,
     lock holder and barrier arrival must be live, and the machine-wide
     coherence invariants must hold (modulo blocks with legitimate
     in-flight activity). *)
  if cfg.Config.sanitize > 0 then begin
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    for dst = 0 to nprocs - 1 do
      Network.iter_queued m.Machine.net ~dst (fun ~src ~arrival:_ payload ->
          if dead src || dead dst then
            add "in-flight %s between dead endpoints %d->%d" (Msg.describe payload)
              src dst)
    done;
    List.iter
      (fun (id, ls) ->
        if ls.Machine.held && dead ls.Machine.holder then
          add "lock %d held by dead processor %d" id ls.Machine.holder)
      locks;
    List.iter
      (fun (id, bs) ->
        List.iter
          (fun p ->
            if dead p then add "barrier %d counts dead arrival %d" id p)
          bs.Machine.arrived_procs)
      barriers;
    List.iter (fun v -> add "%s" (Inspect.describe v)) (Inspect.report m);
    match List.rev !problems with
    | [] -> ()
    | ps ->
      raise (Recovery_violation (Invariant { detail = String.concat "; " ps }))
  end
