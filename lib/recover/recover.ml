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

let embedded_requester = function
  | Msg.Fwd { requester; _ } | Msg.Invalidate { requester; _ } -> Some requester
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Planned re-injections.

   Recovery never calls protocol handlers directly; it repairs tables
   and re-sends the minimal set of messages whose loss would strand a
   live processor, and lets the ordinary protocol re-execute them. The
   plan is collected first (so the rescue and checkpoint paths can
   cancel re-requests they satisfy locally), then flushed in one
   deterministic batch. *)

type reinject = {
  rj_block : int;  (** -1 for synchronization messages *)
  rj_src : int;
  rj_dst : int;
  rj_msg : Msg.t;
  mutable rj_live : bool;
}

let rebuild m ~node ~mode ~kill ~now =
  let cfg = m.Machine.cfg in
  let layout = m.Machine.layout in
  let nprocs = cfg.Config.nprocs in
  let dead_pids = Config.procs_of_node cfg node in
  if m.Machine.dead_nodes.(node) then
    invalid_arg "Recover.rebuild: node already dead";
  if Machine.live_nodes m <= 1 then
    invalid_arg "Recover.rebuild: cannot crash the last live node";

  let plan = ref [] in
  let plan_send ?(block = -1) ~src ~dst msg =
    let r = { rj_block = block; rj_src = src; rj_dst = dst; rj_msg = msg; rj_live = true } in
    plan := r :: !plan;
    r
  in
  let planned p = List.exists (fun r -> r.rj_live && p r) !plan in

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
     endpoint: the harvest tells us which blocks and which stranded
     synchronization operations the lost messages concerned. *)
  let harvested = ref [] in
  for dst = 0 to nprocs - 1 do
    Network.iter_queued m.Machine.net ~dst (fun ~src ~arrival:_ payload ->
        if m.Machine.dead.(src) || m.Machine.dead.(dst) then
          harvested := (src, dst, payload) :: !harvested)
  done;
  let harvested = List.rev !harvested in
  ignore (Network.purge_dead m.Machine.net : int);

  (* 6. The affected set: every block whose directory entry, in-flight
     traffic, or queued protocol work referenced the dead node. Only
     these blocks need surgery; everything else is untouched (which is
     what keeps recovery cost proportional to the crash, not the
     heap). *)
  let affected : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let touch b = Hashtbl.replace affected b () in
  let touch_msg msg = Option.iter touch (Msg.block_of msg) in
  let all_blocks = ref [] in
  Machine.iter_blocks m (fun b -> all_blocks := b :: !all_blocks);
  let all_blocks = List.rev !all_blocks in
  List.iter
    (fun b -> if m.Machine.dead.(Machine.home_of_block m b) then touch b)
    all_blocks;
  List.iter (fun (_, _, msg) -> touch_msg msg) harvested;
  for p = 0 to nprocs - 1 do
    if not m.Machine.dead.(p) then
      Directory.iter
        (fun block e ->
          let dead_ref =
            m.Machine.dead.(e.Directory.owner)
            || List.exists (fun q -> m.Machine.dead.(q))
                 (Bitset.elements e.Directory.sharers)
            || List.exists (fun (src, _) -> m.Machine.dead.(src)) e.Directory.queue
          in
          if dead_ref then touch block)
        m.Machine.dirs.(p)
  done;
  for n = 0 to Config.nnodes cfg - 1 do
    if not m.Machine.dead_nodes.(n) then begin
      let ns = m.Machine.nodes.(n) in
      Downgrade.iter
        (fun de ->
          let deferred_dead =
            match de.Downgrade.deferred with
            | Downgrade.Reply_read { requester }
            | Downgrade.Reply_readex { requester; _ }
            | Downgrade.Inval_done { requester } -> m.Machine.dead.(requester)
            | Downgrade.Recovered -> false
          in
          let queued_dead =
            List.exists
              (fun (src, msg) ->
                m.Machine.dead.(src)
                || match embedded_requester msg with
                   | Some r -> m.Machine.dead.(r)
                   | None -> false)
              de.Downgrade.queued
          in
          if deferred_dead || queued_dead then touch de.Downgrade.block)
        ns.Machine.downgrades;
      Miss_table.iter
        (fun me ->
          if
            List.exists
              (fun (src, msg) ->
                m.Machine.dead.(src)
                || match embedded_requester msg with
                   | Some r -> m.Machine.dead.(r)
                   | None -> false)
              me.Miss_table.queued_fwds
          then touch me.Miss_table.block)
        ns.Machine.misses
    end
  done;
  for dst = 0 to nprocs - 1 do
    Network.iter_queued m.Machine.net ~dst (fun ~src:_ ~arrival:_ payload ->
        match embedded_requester payload with
        | Some r when m.Machine.dead.(r) -> touch_msg payload
        | _ -> ())
  done;
  let affected_blocks =
    Hashtbl.fold (fun b () acc -> b :: acc) affected [] |> List.sort compare
  in

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
        if m.Machine.dead.(q) then go (k + 1) else q
    in
    go 1
  in
  List.iter
    (fun b ->
      let home = Machine.home_of_block m b in
      if m.Machine.dead.(home) then
        Home_map.set_home m.Machine.homes layout ~addr:b
          ~len:(Machine.block_size m b) ~proc:(next_live_from home))
    affected_blocks;

  (* 9. Cancel live-live in-flight messages that name an affected block
     — the rebuilt directory regenerates them — except intra-node
     [Downgrade] messages, whose countdown must complete. Cancelling an
     exclusive data reply un-sends it: the source had already stamped
     its copy invalid when it snapshotted the payload, so the bytes are
     restored there and it becomes the surviving owner. *)
  let cancelled =
    Network.purge_where m.Machine.net (fun ~src:_ ~dst:_ msg ->
        match msg with
        | Msg.Downgrade _ -> false
        | _ -> (
          match Msg.block_of msg with
          | Some b -> Hashtbl.mem affected b
          | None -> false))
  in
  List.iter
    (fun (src, _dst, msg) ->
      match msg with
      | Msg.Data_reply { kind; block; data; _ } when kind <> Msg.Read ->
        let sn = Machine.node_of m src in
        let ns = m.Machine.nodes.(sn) in
        Image.write_bytes ns.Machine.image ~addr:block data;
        set_block_state m ns.Machine.table block State_table.Exclusive;
        set_block_state m m.Machine.privates.(src) block State_table.Exclusive
      | _ -> ())
    cancelled;

  (* 10. Surviving-node surgery per affected block: reset every miss
     entry to the state "request sent, nothing received" and plan a
     fresh request to the (possibly new) home; queued forwards and
     queued downgrade work are dropped (the rebuilt directory will
     regenerate them); deferred downgrade actions are rewritten to
     complete locally (the rescue in step 11 may rewrite one back to a
     live reply). *)
  let miss_plan : (int * int, reinject) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let home = Machine.home_of_block m b in
      for n = 0 to Config.nnodes cfg - 1 do
        if not m.Machine.dead_nodes.(n) then begin
          let ns = m.Machine.nodes.(n) in
          (match Miss_table.find ns.Machine.misses ~block:b with
          | None -> ()
          | Some me ->
            me.Miss_table.queued_fwds <- [];
            me.Miss_table.acks_expected <- -1;
            me.Miss_table.acks_received <- 0;
            me.Miss_table.inval_after_reply <- false;
            let kind =
              if me.Miss_table.data_ready then begin
                (* Data already applied; only invalidation acks were
                   lost. Convert to an upgrade so the rebuilt directory
                   re-invalidates the other sharers through the normal
                   path. *)
                me.Miss_table.data_ready <- false;
                me.Miss_table.kind <- Msg.Upgrade;
                me.Miss_table.upgrade_after_reply <- false;
                set_block_pending m ns.Machine.table b true;
                Msg.Upgrade
              end
              else me.Miss_table.kind
            in
            let rj =
              plan_send ~block:b ~src:me.Miss_table.requester ~dst:home
                (Msg.Req { kind; block = b })
            in
            Hashtbl.replace miss_plan (b, n) rj);
          match Downgrade.find ns.Machine.downgrades ~block:b with
          | None -> ()
          | Some de ->
            de.Downgrade.queued <- [];
            de.Downgrade.deferred <- Downgrade.Recovered
        end
      done)
    affected_blocks;

  (* 11. Directory rebuild per affected block, at its post-re-homing
     home: reconstruct owner and sharers from the surviving nodes'
     effective states (a node mid-downgrade counts at its downgrade
     target — the state it is committed to reach). A node's
     representative is the requester of its resident miss entry when one
     exists (so the re-injected request finds itself in the sharer set),
     else its highest private copy-holder. *)
  List.iter
    (fun b ->
      let home = Machine.home_of_block m b in
      let home_node = Machine.node_of m home in
      let eff n =
        let ns = m.Machine.nodes.(n) in
        match Downgrade.find ns.Machine.downgrades ~block:b with
        | Some de -> de.Downgrade.target
        | None -> block_state m ns.Machine.table b
      in
      let rep n =
        match Miss_table.find m.Machine.nodes.(n).Machine.misses ~block:b with
        | Some me -> me.Miss_table.requester
        | None ->
          let line = Layout.line_of layout b in
          let best = ref (-1) and best_rank = ref (-1) in
          List.iter
            (fun p ->
              let r =
                State_table.rank (State_table.get m.Machine.privates.(p) line)
              in
              if r > !best_rank then begin
                best := p;
                best_rank := r
              end)
            (Config.procs_of_node cfg n);
          !best
      in
      let live_nodes = ref [] in
      for n = Config.nnodes cfg - 1 downto 0 do
        if not m.Machine.dead_nodes.(n) then live_nodes := n :: !live_nodes
      done;
      let valid_nodes = List.filter (fun n -> eff n <> State_table.Invalid) !live_nodes in
      let e = Directory.entry m.Machine.dirs.(home) ~block:b ~home in
      e.Directory.busy <- false;
      e.Directory.queue <- [];
      if valid_nodes <> [] then begin
        e.Directory.sharers <- Bitset.of_list (List.map rep valid_nodes);
        e.Directory.owner <-
          (match
             List.find_opt (fun n -> eff n = State_table.Exclusive) valid_nodes
           with
          | Some n -> rep n
          | None ->
            if List.mem home_node valid_nodes then rep home_node
            else rep (List.hd valid_nodes))
      end
      else begin
        (* No surviving node holds (or is committed to hold) a valid
           copy. A node mid-downgrade to invalid still physically has
           the bytes: rescue them by rewriting its deferred action into
           an exclusive reply to a miss entry at the home — from there
           the ordinary reply / ownership-ack machinery finishes the
           transfer. *)
        let donor =
          List.find_opt
            (fun n ->
              match
                Downgrade.find m.Machine.nodes.(n).Machine.downgrades ~block:b
              with
              | Some de -> de.Downgrade.target = State_table.Invalid
              | None -> false)
            !live_nodes
        in
        match donor with
        | Some n ->
          let de =
            Option.get
              (Downgrade.find m.Machine.nodes.(n).Machine.downgrades ~block:b)
          in
          let hns = m.Machine.nodes.(home_node) in
          let requester =
            match Miss_table.find hns.Machine.misses ~block:b with
            | Some me ->
              me.Miss_table.kind <- Msg.Readex;
              me.Miss_table.data_ready <- false;
              me.Miss_table.acks_expected <- -1;
              me.Miss_table.acks_received <- 0;
              me.Miss_table.upgrade_after_reply <- false;
              me.Miss_table.inval_after_reply <- false;
              (match Hashtbl.find_opt miss_plan (b, home_node) with
              | Some rj -> rj.rj_live <- false
              | None -> ());
              me.Miss_table.requester
            | None ->
              ignore
                (Miss_table.add hns.Machine.misses ~block:b ~requester:home
                   ~kind:Msg.Readex ~now
                  : Miss_table.entry);
              home
          in
          set_block_pending m hns.Machine.table b true;
          de.Downgrade.deferred <-
            Downgrade.Reply_readex { requester; inval_acks = 0 };
          e.Directory.owner <- requester;
          e.Directory.sharers <- Bitset.singleton requester;
          e.Directory.busy <- true
        | None -> (
          (* True data loss: the block's only copies died. *)
          let demand n =
            Miss_table.find m.Machine.nodes.(n).Machine.misses ~block:b
          in
          let restore_from data skip =
            let hns = m.Machine.nodes.(home_node) in
            Image.write_bytes hns.Machine.image ~addr:b ~skip data;
            set_block_state m hns.Machine.table b State_table.Exclusive;
            match demand home_node with
            | Some me ->
              (* Complete the home-resident miss locally: stalled
                 accesses observe [data_ready] through their entry
                 reference and re-run their checks against the restored
                 exclusive copy. *)
              (match Hashtbl.find_opt miss_plan (b, home_node) with
              | Some rj -> rj.rj_live <- false
              | None -> ());
              me.Miss_table.data_ready <- true;
              me.Miss_table.acks_expected <- 0;
              me.Miss_table.acks_received <- 0;
              set_block_state m m.Machine.privates.(me.Miss_table.requester) b
                State_table.Exclusive;
              Miss_table.remove hns.Machine.misses me;
              Bitset.iter
                (fun p ->
                  let q = m.Machine.procs.(p) in
                  q.Machine.outstanding_stores <- q.Machine.outstanding_stores - 1)
                me.Miss_table.store_procs;
              set_block_pending m hns.Machine.table b false;
              e.Directory.owner <- me.Miss_table.requester;
              e.Directory.sharers <- Bitset.singleton me.Miss_table.requester
            | None ->
              set_block_state m m.Machine.privates.(home) b State_table.Exclusive;
              set_block_pending m hns.Machine.table b false;
              e.Directory.owner <- home;
              e.Directory.sharers <- Bitset.singleton home
          in
          let reinit_or_fail () =
            if List.exists (fun n -> demand n <> None) !live_nodes then
              raise (Recovery_violation (Data_loss { block = b }))
            else
              (* No live processor has ever demanded the block since the
                 loss; re-initialize it zeroed at the home, as at
                 allocation time. *)
              restore_from (Bytes.make (Machine.block_size m b) '\000') []
          in
          match mode with
          | Pull -> reinit_or_fail ()
          | Ckpt ck -> (
            match Checkpoint.recover_data ck ~block:b with
            | None -> reinit_or_fail ()
            | Some data ->
              let skip =
                match demand home_node with
                | Some me -> me.Miss_table.store_ranges
                | None -> []
              in
              restore_from data skip))
      end)
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
      let src_live = not m.Machine.dead.(src) and dst_live = not m.Machine.dead.(dst) in
      match msg with
      | Msg.Lock_req { lock } when src_live && not dst_live ->
        ignore (plan_send ~src ~dst:(Machine.lock_home m lock) msg)
      | Msg.Lock_release { lock } when src_live && not dst_live ->
        ignore (plan_send ~src ~dst:(Machine.lock_home m lock) msg)
      | Msg.Barrier_arrive { barrier } when src_live && not dst_live ->
        ignore (plan_send ~src ~dst:(Machine.barrier_home m barrier) msg)
      | Msg.Lock_grant { lock } when dst_live && not src_live ->
        ignore (plan_send ~src:(Machine.lock_home m lock) ~dst msg)
      | Msg.Barrier_release { barrier; _ } when dst_live && not src_live ->
        ignore (plan_send ~src:(Machine.barrier_home m barrier) ~dst msg)
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
        List.filter (fun p -> not m.Machine.dead.(p)) ls.Machine.lock_queue;
      if ls.Machine.held && m.Machine.dead.(ls.Machine.holder) then begin
        let holder = Machine.hand_off_lock ls in
        if holder >= 0 then
          ignore
            (plan_send ~src:(Machine.lock_home m id) ~dst:holder
               (Msg.Lock_grant { lock = id }))
      end)
    locks;
  for p = 0 to nprocs - 1 do
    if not m.Machine.dead.(p) then begin
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
          ignore
            (plan_send ~src:p ~dst:(Machine.lock_home m l)
               (Msg.Lock_req { lock = l }))
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
        List.filter (fun p -> not m.Machine.dead.(p)) bs.Machine.arrived_procs;
      bs.Machine.arrived <- List.length bs.Machine.arrived_procs;
      List.iter
        (fun (dst, msg) ->
          ignore (plan_send ~src:(Machine.barrier_home m id) ~dst msg))
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
              ignore
                (plan_send ~src:(Machine.barrier_home m b) ~dst:head
                   (Msg.Barrier_release
                      { barrier = b; generation = bs.Machine.generation }))
            else if
              lbs.Machine.arrived = 0
              && (not
                    (List.exists
                       (fun p -> List.mem p node_pids)
                       bs.Machine.arrived_procs))
              && not
                   (arrive_inflight (fun src msg -> List.mem src node_pids && is_b msg))
            then
              ignore
                (plan_send ~src:head ~dst:(Machine.barrier_home m b)
                   (Msg.Barrier_arrive { barrier = b })))
          waiting_ids
      end
    done
  else
    for p = 0 to nprocs - 1 do
      if not m.Machine.dead.(p) then begin
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
              ignore
                (plan_send ~src:(Machine.barrier_home m b) ~dst:p
                   (Msg.Barrier_release
                      { barrier = b; generation = bs.Machine.generation }))
          end
          else if
            (not (List.mem p bs.Machine.arrived_procs))
            && not (arrive_inflight (fun src msg -> src = p && is_b msg))
          then
            ignore
              (plan_send ~src:p ~dst:(Machine.barrier_home m b)
                 (Msg.Barrier_arrive { barrier = b }))
      end
    done;

  (* Flush the plan: one deterministic batch of re-sent messages. Each
     costs a remote send of recovery time (charged to the machine-wide
     recovery counter, not to any processor's clock — the dead node's
     failover hardware does this work in the model). *)
  let to_send =
    List.filter (fun r -> r.rj_live) (List.rev !plan)
    |> List.stable_sort (fun a b ->
           compare
             (a.rj_block, a.rj_src, a.rj_dst, Msg.tag a.rj_msg)
             (b.rj_block, b.rj_src, b.rj_dst, Msg.tag b.rj_msg))
  in
  (* These sends need no [Engine.sent], unlike the protocol's, only
     because the engine never parks a processor in a run with crash
     events: no destination can be asleep or frozen, and the next
     horizon is computed after this event returns. *)
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
          if m.Machine.dead.(src) || m.Machine.dead.(dst) then
            add "in-flight %s between dead endpoints %d->%d" (Msg.describe payload)
              src dst)
    done;
    List.iter
      (fun (id, ls) ->
        if ls.Machine.held && m.Machine.dead.(ls.Machine.holder) then
          add "lock %d held by dead processor %d" id ls.Machine.holder)
      locks;
    List.iter
      (fun (id, bs) ->
        List.iter
          (fun p ->
            if m.Machine.dead.(p) then add "barrier %d counts dead arrival %d" id p)
          bs.Machine.arrived_procs)
      barriers;
    List.iter (fun v -> add "%s" (Inspect.describe v)) (Inspect.report m);
    match List.rev !problems with
    | [] -> ()
    | ps ->
      raise (Recovery_violation (Invariant { detail = String.concat "; " ps }))
  end
