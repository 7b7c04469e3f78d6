module State_table = Shasta_mem.State_table
module Bitset = Shasta_util.Bitset

type cost =
  | Handler
  | Node_lock
  | Home
  | Downgrade_start
  | Downgrade_send
  | Downgrade_handler
  | Data_apply
  | Miss_setup
  | Protocol_entry
  | Private_upgrade

type note =
  | Downgrade_queued of int * Msg.t
  | Downgrade_ack
  | Downgrade_done
  | Downgrade_replay of int * Msg.t
  | Downgrades_sent of int
  | Miss_served of { kind : Msg.req_kind; three_hop : bool; start : int }
  | False_miss
  | Private_upgrade

module type VIEW = sig
  type t

  val pid : t -> int
  val block : t -> int
  val home : t -> int
  val node_of : t -> int -> int
  val node_procs : t -> int list
  val base : t -> State_table.base
  val set_base : t -> State_table.base -> unit
  val set_pending : t -> bool -> unit
  val private_state : t -> int -> State_table.base
  val raise_private : t -> int -> State_table.base -> unit
  val install : t -> Miss_table.entry -> Bytes.t -> unit
  val dir : t -> Directory.entry
  val miss : t -> Miss_table.entry option
  val open_miss : t -> Msg.req_kind -> Miss_table.entry
  val retire : t -> Miss_table.entry -> unit
  val downgrade : t -> Downgrade.entry option
  val transmit : t -> int -> Msg.t -> unit
  val mark : t -> string -> unit
end

module type SUBSTRATE = sig
  include VIEW

  val fault : t -> Config.fault option
  val pending : t -> bool
  val pending_downgrade : t -> bool
  val set_pending_downgrade : t -> bool -> unit
  val check_state : t -> State_table.base
  val lower_private : t -> int -> State_table.base -> unit
  val stamp : t -> unit
  val snapshot : t -> Bytes.t

  type write

  val write : t -> write -> unit
  val store_slot_free : t -> bool
  val record_store : t -> Miss_table.entry -> off:int -> len:int -> unit
  val share_directory : t -> bool

  val open_downgrade :
    t ->
    target:State_table.base ->
    deferred:Downgrade.deferred ->
    remaining:int ->
    unit

  val close_downgrade : t -> Downgrade.entry -> unit
  val charge : t -> cost -> unit
  val note : t -> note -> unit
  val violation : t -> string -> 'a
end

module type RECOVERY_SUBSTRATE = sig
  include VIEW

  val restore : t -> Bytes.t option -> unit
end

(* One branch mark per message class, allocated once. *)
let msg_marks = Array.map (fun name -> "msg:" ^ name) Msg.tag_names

module Make (S : SUBSTRATE) = struct
  let node v = S.node_of v (S.pid v)

  let node_has_valid v =
    S.base v <> State_table.Invalid
    && (not (S.pending v))
    && not (S.pending_downgrade v)

  let rec handle v ~src msg =
    S.charge v Node_lock;
    S.mark v msg_marks.(Msg.tag msg);
    match msg with
    | Msg.Req { kind; _ } -> handle_dir_request v ~src ~kind
    | Msg.Fwd { kind; requester; inval_acks; _ } ->
      handle_fwd v ~src ~kind ~requester ~inval_acks msg
    | Msg.Data_reply { kind; data; from_home; inval_acks; _ } ->
      handle_data_reply v ~kind ~data ~from_home ~inval_acks
    | Msg.Upgrade_reply { inval_acks; _ } -> handle_upgrade_reply v ~inval_acks
    | Msg.Invalidate { requester; _ } -> handle_invalidate v ~src ~requester msg
    | Msg.Inval_ack _ -> handle_inval_ack v
    | Msg.Sharing_wb { new_sharer; _ } -> handle_sharing_wb v ~new_sharer
    | Msg.Own_ack _ -> handle_own_ack v
    | Msg.Downgrade { target; _ } -> handle_downgrade_msg v ~target
    | Msg.Lock_req _ | Msg.Lock_grant _ | Msg.Lock_release _
    | Msg.Barrier_arrive _ | Msg.Barrier_release _ ->
      S.violation v ("block handler given a sync message: " ^ Msg.describe msg)

  (* A message sent to self, or replayed from a queue, pays the handler
     entry as if it had arrived. *)
  and receive v ~src msg =
    S.charge v Handler;
    handle v ~src msg

  and send v dst msg =
    if dst = S.pid v then receive v ~src:dst msg else S.transmit v dst msg

  (* ---------------- Directory (home) side ---------------- *)

  and handle_dir_request v ~src ~kind =
    S.charge v Home;
    let e = S.dir v in
    if e.Directory.busy then begin
      S.mark v "dir.busy_queue";
      Directory.push_queued e ~src kind
    end
    else serve_request v e ~src ~kind

  and serve_request v e ~src ~kind =
    match kind with
    | Msg.Read -> handle_read_request v ~src e
    | Msg.Readex -> handle_readex_request v ~src e
    | Msg.Upgrade ->
      if Bitset.mem src e.Directory.sharers then handle_upgrade_request v ~src e
      else begin
        (* The requester's copy was invalidated while its upgrade was in
           flight: supply data as for a read-exclusive. *)
        S.mark v "dir.upgrade_as_readex";
        handle_readex_request v ~src e
      end

  and handle_read_request v ~src e =
    if node_has_valid v then begin
      match S.base v with
      | State_table.Shared ->
        (* Home has a clean copy: serve directly (2 hops). *)
        S.mark v "dir.read.serve_shared";
        e.Directory.sharers <-
          Bitset.add src (Bitset.add (S.pid v) e.Directory.sharers);
        send_data v ~dst:src ~kind:Msg.Read ~inval_acks:0 (S.snapshot v)
      | State_table.Exclusive ->
        S.mark v "dir.read.home_exclusive";
        e.Directory.busy <- true;
        start_node_downgrade v ~target:State_table.Shared
          ~deferred:(Downgrade.Reply_read { requester = src })
      | State_table.Invalid ->
        S.violation v "read request: home node valid yet state Invalid"
    end
    else begin
      S.mark v "dir.read.forward";
      e.Directory.busy <- true;
      send v e.Directory.owner
        (Msg.Fwd
           {
             kind = Msg.Read;
             block = S.block v;
             requester = src;
             inval_acks = 0;
           })
    end

  (* Send an invalidation to a sharer — except that a sharer on this
     very node must be invalidated inline: the home has already
     serialized the invalidating transaction, and leaving its own node's
     copy valid until a sibling polls the message would let a later
     request be served from the dead copy. *)
  and send_invalidate v ~requester q =
    let msg = Msg.Invalidate { block = S.block v; requester } in
    if S.node_of v q = node v then begin
      S.mark v "inval.inline";
      handle_invalidate v ~src:(S.pid v) ~requester msg
    end
    else send v q msg

  (* Invalidate the sharers outside the [keep] node and the requester's,
     then hand ownership to the requester; returns the acks it awaits. *)
  and invalidate_for v e ~src ~keep =
    let invals =
      List.filter
        (fun q ->
          S.node_of v q <> keep && S.node_of v q <> S.node_of v src)
        (Bitset.elements e.Directory.sharers)
    in
    List.iter (send_invalidate v ~requester:src) invals;
    e.Directory.owner <- src;
    e.Directory.sharers <- Bitset.singleton src;
    List.length invals

  and handle_readex_request v ~src e =
    if node_has_valid v then begin
      (* The home node supplies the data and is itself invalidated;
         sharers on other nodes (except the requester's) are invalidated
         with acknowledgements flowing to the requester. *)
      S.mark v "dir.readex.home_valid";
      let acks = invalidate_for v e ~src ~keep:(node v) in
      e.Directory.busy <- true;
      start_node_downgrade v ~target:State_table.Invalid
        ~deferred:
          (Downgrade.Reply_readex { requester = src; inval_acks = acks })
    end
    else begin
      S.mark v "dir.readex.forward";
      let owner = e.Directory.owner in
      let acks = invalidate_for v e ~src ~keep:(S.node_of v owner) in
      e.Directory.busy <- true;
      send v owner
        (Msg.Fwd
           {
             kind = Msg.Readex;
             block = S.block v;
             requester = src;
             inval_acks = acks;
           })
    end

  and handle_upgrade_request v ~src e =
    S.mark v "dir.upgrade.serve";
    let acks = invalidate_for v e ~src ~keep:(S.node_of v src) in
    send v src (Msg.Upgrade_reply { block = S.block v; inval_acks = acks })

  and drain_dir_queue v =
    let e = S.dir v in
    let rec loop () =
      if not e.Directory.busy then
        match Directory.pop_queued e with
        | Some (src, kind) ->
          S.mark v "dir.drain";
          serve_request v e ~src ~kind;
          loop ()
        | None -> ()
    in
    loop ()

  and handle_sharing_wb v ~new_sharer =
    let e = S.dir v in
    e.Directory.sharers <-
      Bitset.add new_sharer (Bitset.add e.Directory.owner e.Directory.sharers);
    e.Directory.busy <- false;
    drain_dir_queue v

  and handle_own_ack v =
    let e = S.dir v in
    e.Directory.busy <- false;
    drain_dir_queue v

  (* ---------------- Owner / sharer side ---------------- *)

  and send_data v ~dst ~kind ~inval_acks data =
    let from_home = S.pid v = S.home v in
    send v dst
      (Msg.Data_reply { kind; block = S.block v; data; from_home; inval_acks })

  and queue_on_downgrade v dg ~src msg =
    Downgrade.push_queued dg ~src msg;
    S.note v (Downgrade_queued (src, msg))

  and handle_fwd v ~src ~kind ~requester ~inval_acks msg =
    match S.downgrade v with
    | Some dg ->
      S.mark v "fwd.queued_on_downgrade";
      queue_on_downgrade v dg ~src msg
    | None -> (
      match S.miss v with
      | Some e
        when (not e.Miss_table.data_ready) && S.base v = State_table.Invalid ->
        (* Our data is genuinely in flight: defer until it lands. When
           the pending request is an upgrade the node still holds a valid
           (shared) copy and the forwarded request — serialized before
           our upgrade at the home — must be served immediately instead;
           deferring it would deadlock against the home's busy queue. *)
        S.mark v "fwd.queued_on_miss";
        e.Miss_table.queued_fwds <- (src, msg) :: e.Miss_table.queued_fwds
      | Some _ | None -> (
        match kind with
        | Msg.Read -> (
          match S.base v with
          | State_table.Exclusive ->
            S.mark v "fwd.read.exclusive";
            start_node_downgrade v ~target:State_table.Shared
              ~deferred:(Downgrade.Reply_read { requester })
          | State_table.Shared ->
            S.mark v "fwd.read.shared";
            execute_deferred v ~target:State_table.Shared
              ~deferred:(Downgrade.Reply_read { requester })
          | State_table.Invalid ->
            S.violation v "read forwarded to an owner with no copy")
        | Msg.Readex ->
          if S.base v = State_table.Invalid then
            S.violation v "readex forwarded to an owner with no copy";
          S.mark v "fwd.readex";
          start_node_downgrade v ~target:State_table.Invalid
            ~deferred:(Downgrade.Reply_readex { requester; inval_acks })
        | Msg.Upgrade ->
          S.violation v
            "upgrade forwarded to an owner (upgrades are home-served)"))

  and handle_invalidate v ~src ~requester msg =
    match S.downgrade v with
    | Some dg ->
      S.mark v "inval.queued_on_downgrade";
      queue_on_downgrade v dg ~src msg
    | None -> (
      match S.miss v with
      | Some e when not e.Miss_table.data_ready ->
        (* The invalidation raced with our refetch and targets the copy
           we held when the home serialized the invalidating write —
           always before our own request. For a pure read fetch the
           reply data is therefore already stale: apply it, wake
           waiters, invalidate immediately. For an ownership fetch
           (read-exclusive, upgrade, or a read with a chained ownership
           request) the reply grants fresh exclusive ownership
           serialized after the invalidation — but the node's CURRENT
           (shared) copy must die right now, or sibling processors could
           keep reading it after the invalidating writer's release
           completes. *)
        if e.Miss_table.kind = Msg.Read then begin
          (* Applies to chained-upgrade reads too: the
             invalidation-aware apply path stamps before the chained
             ownership request picks its kind, so the chain fetches
             fresh data. *)
          S.mark v "inval.mark_after_reply";
          e.Miss_table.inval_after_reply <- true
        end
        else begin
          S.mark v "inval.kill_current_copy";
          if S.base v <> State_table.Invalid then begin
            S.stamp v;
            (* Privates drop before the node entry so that no observer
               (and no sibling in real memory order) ever sees a private
               entry exceeding the node's; there is no scheduling point
               in between, so the order is otherwise invisible. *)
            List.iter
              (fun q -> S.lower_private v q State_table.Invalid)
              (S.node_procs v);
            S.set_base v State_table.Invalid
          end
        end;
        send v requester (Msg.Inval_ack { block = S.block v })
      | Some _ | None -> (
        match S.base v with
        | State_table.Shared ->
          S.mark v "inval.downgrade";
          start_node_downgrade v ~target:State_table.Invalid
            ~deferred:(Downgrade.Inval_done { requester })
        | State_table.Exclusive | State_table.Invalid ->
          (* Stale invalidation: nothing to do but acknowledge. The home
             invalidates only sharers, so one that finds the node
             Exclusive targeted a shared copy this node has since
             replaced by ownership serialized after it (a readex served
             by the invalidating writer). Downgrading would kill the
             fresh copy the directory names as owner. *)
          S.mark v "inval.stale_ack";
          send v requester (Msg.Inval_ack { block = S.block v })))

  (* ---------------- Downgrades (§3.4.3) ---------------- *)

  and start_node_downgrade v ~target ~deferred =
    S.charge v Downgrade_start;
    let me = S.pid v in
    let targets =
      List.filter
        (fun q ->
          q <> me
          && State_table.rank (S.private_state v q) > State_table.rank target)
        (S.node_procs v)
    in
    S.lower_private v me target;
    let n = List.length targets in
    S.note v (Downgrades_sent n);
    if n = 0 then begin
      S.mark v "downgrade.immediate";
      execute_deferred v ~target ~deferred
    end
    else begin
      S.mark v "downgrade.sibling";
      if S.downgrade v <> None then
        S.violation v "downgrade started with one already in progress";
      S.open_downgrade v ~target ~deferred ~remaining:n;
      S.set_pending_downgrade v true;
      List.iter
        (fun q ->
          S.charge v Downgrade_send;
          send v q (Msg.Downgrade { block = S.block v; target }))
        targets
    end

  and handle_downgrade_msg v ~target =
    S.charge v Downgrade_handler;
    if S.fault v <> Some Config.Skip_private_downgrade then
      S.lower_private v (S.pid v) target;
    S.note v Downgrade_ack;
    match S.downgrade v with
    | None -> S.violation v "downgrade message with no downgrade in progress"
    | Some dg ->
      dg.Downgrade.remaining <- dg.Downgrade.remaining - 1;
      if dg.Downgrade.remaining = 0 then begin
        S.mark v "downgrade.complete";
        S.close_downgrade v dg;
        S.set_pending_downgrade v false;
        execute_deferred v ~target:dg.Downgrade.target
          ~deferred:dg.Downgrade.deferred;
        List.iter
          (fun (src, msg) ->
            S.mark v "downgrade.replay";
            S.note v (Downgrade_replay (src, msg));
            receive v ~src msg)
          (Downgrade.take_queued dg)
      end

  and execute_deferred v ~target ~deferred =
    S.note v Downgrade_done;
    if S.downgrade v <> None then
      S.violation v "deferred action ran with a downgrade still pending";
    (* The snapshot is taken and this node's state fully downgraded
       BEFORE any message is sent: a reply to a requester on this very
       node is handled inline, and it must observe the downgraded state
       (otherwise installing its fresh copy would be undone below). *)
    match deferred with
    | Downgrade.Reply_read { requester } ->
      if target <> State_table.Shared then
        S.violation v "read downgrade with a non-Shared target";
      S.mark v "deferred.reply_read";
      let data = S.snapshot v in
      S.set_base v State_table.Shared;
      send_data v ~dst:requester ~kind:Msg.Read ~inval_acks:0 data;
      let home = S.home v in
      if S.pid v = home then handle_sharing_wb v ~new_sharer:requester
      else
        send v home
          (Msg.Sharing_wb { block = S.block v; new_sharer = requester })
    | Downgrade.Reply_readex { requester; inval_acks } ->
      if target <> State_table.Invalid then
        S.violation v "readex downgrade with a non-Invalid target";
      S.mark v "deferred.reply_readex";
      let data = S.snapshot v in
      S.stamp v;
      S.set_base v State_table.Invalid;
      (* The home's busy bit is cleared by the REQUESTER's Own_ack when
         it applies this data: forwarding a later request to the new
         owner before its data has landed would let it serve stale
         bytes. *)
      send_data v ~dst:requester ~kind:Msg.Readex ~inval_acks data
    | Downgrade.Inval_done { requester } ->
      if target <> State_table.Invalid then
        S.violation v "inval downgrade with a non-Invalid target";
      S.mark v "deferred.inval_done";
      S.stamp v;
      S.set_base v State_table.Invalid;
      send v requester (Msg.Inval_ack { block = S.block v })
    | Downgrade.Recovered ->
      (* The requester of the original deferred action died; recovery
         rewrote the entry. Complete the downgrade locally so the node
         state matches the already-lowered sibling private entries, and
         send nothing. *)
      S.mark v "deferred.recovered";
      if target = State_table.Invalid then S.stamp v;
      S.set_base v target

  (* ---------------- Requester side: replies ---------------- *)

  and complete_if_ready v e =
    if Miss_table.complete e then begin
      S.mark v "entry.retire";
      let fwds = List.rev e.Miss_table.queued_fwds in
      e.Miss_table.queued_fwds <- [];
      S.retire v e;
      List.iter (fun (src, msg) -> receive v ~src msg) fwds
    end
    else if e.Miss_table.data_ready then begin
      (* Still awaiting acks, but the data is valid: serve queued
         forwarded requests now. *)
      let fwds = List.rev e.Miss_table.queued_fwds in
      e.Miss_table.queued_fwds <- [];
      if fwds <> [] then S.mark v "entry.serve_early";
      List.iter (fun (src, msg) -> receive v ~src msg) fwds
    end

  and handle_data_reply v ~kind ~data ~from_home ~inval_acks =
    S.charge v Data_apply;
    match S.miss v with
    | None -> S.violation v "data reply with no outstanding miss"
    | Some e ->
      if e.Miss_table.data_ready then
        S.violation v "data reply on an already-ready entry";
      S.install v e data;
      let new_state =
        match kind with
        | Msg.Read -> State_table.Shared
        | Msg.Readex | Msg.Upgrade -> State_table.Exclusive
      in
      S.set_base v new_state;
      S.set_pending v false;
      S.raise_private v (S.pid v) new_state;
      e.Miss_table.data_ready <- true;
      e.Miss_table.acks_expected <- inval_acks;
      if kind = Msg.Readex then begin
        (* Completion acknowledgement of the ownership transfer. *)
        let home = S.home v in
        if S.pid v = home then handle_own_ack v
        else send v home (Msg.Own_ack { block = S.block v })
      end;
      S.note v
        (Miss_served
           {
             kind = e.Miss_table.kind;
             three_hop = not from_home;
             start = e.Miss_table.start_cycles;
           });
      if e.Miss_table.inval_after_reply then begin
        (* Stalled accesses observe [data_ready] and re-run their checks;
           the block is already gone again. *)
        S.mark v "entry.inval_after_reply";
        e.Miss_table.inval_after_reply <- false;
        S.stamp v;
        S.lower_private v (S.pid v) State_table.Invalid;
        S.set_base v State_table.Invalid
      end;
      if e.Miss_table.upgrade_after_reply && e.Miss_table.kind = Msg.Read
      then begin
        (* A store merged into this read entry while it was pending:
           chain an ownership request, keeping the entry (and its merged
           store ranges) alive so that release operations wait for it. *)
        S.mark v "entry.chain_ownership";
        e.Miss_table.upgrade_after_reply <- false;
        e.Miss_table.data_ready <- false;
        e.Miss_table.acks_expected <- -1;
        let kind2 =
          if S.base v = State_table.Shared then Msg.Upgrade else Msg.Readex
        in
        e.Miss_table.kind <- kind2;
        S.set_pending v true;
        request v kind2 ~shortcut:false
      end
      else complete_if_ready v e

  and handle_upgrade_reply v ~inval_acks =
    S.charge v Data_apply;
    match S.miss v with
    | None -> S.violation v "upgrade reply with no outstanding miss"
    | Some e ->
      if e.Miss_table.data_ready then
        S.violation v "upgrade reply on an already-ready entry";
      S.set_base v State_table.Exclusive;
      S.set_pending v false;
      S.raise_private v (S.pid v) State_table.Exclusive;
      e.Miss_table.data_ready <- true;
      e.Miss_table.acks_expected <- inval_acks;
      S.note v
        (Miss_served
           {
             kind = Msg.Upgrade;
             three_hop = false;
             start = e.Miss_table.start_cycles;
           });
      complete_if_ready v e

  and handle_inval_ack v =
    match S.miss v with
    | None -> S.violation v "invalidation ack with no outstanding miss"
    | Some e ->
      e.Miss_table.acks_received <- e.Miss_table.acks_received + 1;
      complete_if_ready v e

  (* ---------------- Requester side: requests ---------------- *)

  (* Send the block's request home. With the share_directory extension
     (5) a requester on the home's node runs the directory service
     itself under the node's lock, saving the intra-node message and
     its reply hop. Loads and batch fetches take that shortcut; store
     issues and chained ownership requests message the home. *)
  and request v kind ~shortcut =
    S.charge v Miss_setup;
    let msg = Msg.Req { kind; block = S.block v } in
    let home = S.home v in
    if
      shortcut && home <> S.pid v && S.share_directory v
      && S.node_of v home = node v
    then begin
      S.charge v Node_lock;
      receive v ~src:(S.pid v) msg
    end
    else send v home msg

  (* Open a miss entry and mark the block pending (the [Miss_start]
     event comes before the pending bit is set). *)
  let open_fetch v kind =
    let e = S.open_miss v kind in
    S.set_pending v true;
    e

  let fetch v kind =
    let e = open_fetch v kind in
    request v kind ~shortcut:true;
    e

  (* ---------------- Accesses after a failed inline check ---------------- *)

  (* The node's copy serves the miss: record the private upgrade and
     charge it. *)
  let private_upgrade v st =
    S.raise_private v (S.pid v) st;
    S.note v Private_upgrade;
    S.charge v Private_upgrade

  let load_miss v =
    S.charge v Protocol_entry;
    S.charge v Node_lock;
    if S.base v <> State_table.Invalid then begin
      (* The node has the data, so the flag value is application data: a
         false miss, or under SMP possibly only a private-state miss. *)
      if S.pending_downgrade v then begin
        (* Pre-downgrade state suffices for a load: consume the value
           without touching the private state (§3.4.3). *)
        S.mark v "load.pdg_consume";
        S.charge v Private_upgrade
      end
      else if State_table.rank (S.check_state v) = 0 then begin
        S.mark v "load.private_upgrade";
        private_upgrade v State_table.Shared
      end
      else S.mark v "load.false_miss";
      S.note v False_miss;
      `Done
    end
    else
      match S.miss v with
      | Some e when not e.Miss_table.data_ready ->
        S.mark v "load.stall_data";
        `Data e
      | Some _ ->
        (* The previous transaction is still collecting invalidation
           acks and the block has been invalidated again underneath it:
           a new request must wait for the old entry to drain. *)
        S.mark v "load.stall_drain";
        `Retire
      | None ->
        S.mark v "load.issue";
        `Data (fetch v Msg.Read)

  let store_miss v ~off ~len w =
    S.charge v Protocol_entry;
    S.charge v Node_lock;
    let base = S.base v and pdg = S.pending_downgrade v in
    if pdg && base = State_table.Exclusive then begin
      (* Pre-downgrade state suffices: store under the node's lock; the
         downgrade's data snapshot will include it (§3.4.3). *)
      S.mark v "store.pre_downgrade";
      S.charge v Private_upgrade;
      S.write v w;
      `Done
    end
    else if (not pdg) && base = State_table.Exclusive then begin
      if State_table.rank (S.check_state v) < 2 then begin
        S.mark v "store.private_upgrade";
        private_upgrade v State_table.Exclusive
      end;
      S.write v w;
      `Done
    end
    else
      match S.miss v with
      | Some { Miss_table.data_ready = true; _ } ->
        (* The entry's data phase is over (it is only draining
           acknowledgements) and the node no longer holds the block
           exclusively. No future reply would merge around a range
           recorded now, so the store waits for the entry to retire and
           runs its own ownership transaction. *)
        S.mark v "store.stall_drain";
        `Retire
      | Some e ->
        if Bitset.mem (S.pid v) e.Miss_table.store_procs || S.store_slot_free v
        then begin
          S.mark v "store.merge";
          S.record_store v e ~off ~len;
          if e.Miss_table.kind = Msg.Read then
            e.Miss_table.upgrade_after_reply <- true;
          S.write v w;
          `Done
        end
        else `Slot
      | None ->
        if S.store_slot_free v then begin
          S.mark v "store.issue";
          let kind =
            if base = State_table.Shared then Msg.Upgrade else Msg.Readex
          in
          let e = open_fetch v kind in
          S.record_store v e ~off ~len;
          (* The store lands before the request goes out: a request the
             home handles inline and answers at once must find the bytes
             for its reply to merge around. *)
          S.write v w;
          request v kind ~shortcut:false;
          `Done
        end
        else `Slot
end

(* ---------------- Crash recovery ---------------- *)

module Recovery (S : RECOVERY_SUBSTRATE) = struct
  let affected ~dead ~live ~msgs ~dir v =
    (* A message serves a dead processor: it came from one, or it names
       one as the requester to answer or the sharer to record. *)
    let serves (src, msg) =
      dead src
      ||
      match msg with
      | Msg.Fwd { requester; _ } | Msg.Invalidate { requester; _ } ->
        dead requester
      | Msg.Sharing_wb { new_sharer; _ } -> dead new_sharer
      | _ -> false
    in
    let deferred_dead = function
      | Downgrade.Reply_read { requester }
      | Downgrade.Reply_readex { requester; _ }
      | Downgrade.Inval_done { requester } ->
        dead requester
      | Downgrade.Recovered -> false
    in
    dead (S.home v)
    || List.exists (fun (src, dst, msg) -> dead dst || serves (src, msg)) msgs
    || (match dir with
       | Some e ->
         dead e.Directory.owner
         || List.exists dead (Bitset.elements e.Directory.sharers)
         || List.exists (fun (src, _) -> dead src) e.Directory.queue
       | None -> false)
    || List.exists
         (fun n ->
           (match S.downgrade n with
           | Some de ->
             deferred_dead de.Downgrade.deferred
             || List.exists serves de.Downgrade.queued
           | None -> false)
           ||
           match S.miss n with
           | Some me -> List.exists serves me.Miss_table.queued_fwds
           | None -> false)
         live

  let cancels = function Msg.Downgrade _ -> false | _ -> true

  let unsend v = function
    | Msg.Data_reply { kind = Msg.Readex | Msg.Upgrade; data; _ } ->
      S.mark v "crash.unsend_data";
      S.restore v (Some data);
      S.set_base v State_table.Exclusive;
      S.raise_private v (S.pid v) State_table.Exclusive
    | _ -> ()

  (* A node mid-downgrade counts at the state it is committed to reach. *)
  let effective n =
    match S.downgrade n with
    | Some de -> de.Downgrade.target
    | None -> S.base n

  (* Who stands for a node's copy in the rebuilt directory: the requester
     of its miss entry, so that the re-issued request finds itself among
     the sharers, else its highest private holder. *)
  let representative n =
    match S.miss n with
    | Some me -> me.Miss_table.requester
    | None ->
      let rank p = State_table.rank (S.private_state n p) in
      let procs = S.node_procs n in
      List.fold_left
        (fun best p -> if rank p > rank best then p else best)
        (List.hd procs) procs

  (* A surviving transaction restarts: its replies and acknowledgements
     may have died, and the rebuilt directory regenerates what it still
     needs. A downgrade completes locally, sending nothing. *)
  let restart n =
    (match S.miss n with
    | None -> ()
    | Some me ->
      me.Miss_table.queued_fwds <- [];
      me.Miss_table.acks_expected <- -1;
      me.Miss_table.acks_received <- 0;
      me.Miss_table.inval_after_reply <- false;
      if me.Miss_table.data_ready then begin
        (* Only acknowledgements were lost: re-secure ownership with an
           upgrade, which re-invalidates the sharers through the normal
           path. *)
        me.Miss_table.data_ready <- false;
        me.Miss_table.kind <- Msg.Upgrade;
        me.Miss_table.upgrade_after_reply <- false;
        S.set_pending n true
      end);
    match S.downgrade n with
    | None -> ()
    | Some de ->
      S.mark n "crash.dg_recovered";
      de.Downgrade.queued <- [];
      de.Downgrade.deferred <- Downgrade.Recovered

  let rebuild ~live ~at ~data v =
    List.iter restart live;
    let home = S.home v in
    let on_home n = S.node_of v (S.pid n) = S.node_of v home in
    let valid =
      List.filter (fun n -> effective n <> State_table.Invalid) live
    in
    let e = S.dir v in
    e.Directory.busy <- false;
    e.Directory.queue <- [];
    let own p =
      e.Directory.owner <- p;
      e.Directory.sharers <- Bitset.singleton p
    in
    let result, reissue =
      if valid <> [] then begin
        S.mark v "crash.rebuild";
        let first p = List.find_opt p valid in
        let owner =
          match first (fun n -> effective n = State_table.Exclusive) with
          | Some n -> n
          | None -> Option.value (first on_home) ~default:(List.hd valid)
        in
        e.Directory.sharers <- Bitset.of_list (List.map representative valid);
        e.Directory.owner <- representative owner;
        (`Rebuilt, live)
      end
      else
        let donor n =
          match S.downgrade n with
          | Some de when de.Downgrade.target = State_table.Invalid -> Some de
          | _ -> None
        in
        match List.find_map donor live with
        | Some de ->
          (* The only copy is mid-downgrade to Invalid on a survivor, so
             its bytes are still there: the downgrade's deferred action
             becomes an exclusive reply to the home node's miss entry,
             and the ordinary reply and ownership ack finish the
             transfer. *)
          S.mark v "crash.rescue";
          let me =
            match S.miss v with
            | Some me ->
              me.Miss_table.kind <- Msg.Readex;
              me.Miss_table.data_ready <- false;
              me.Miss_table.acks_expected <- -1;
              me.Miss_table.acks_received <- 0;
              me.Miss_table.upgrade_after_reply <- false;
              me.Miss_table.inval_after_reply <- false;
              me
            | None -> S.open_miss v Msg.Readex
          in
          S.set_pending v true;
          de.Downgrade.deferred <-
            Downgrade.Reply_readex
              { requester = me.Miss_table.requester; inval_acks = 0 };
          own me.Miss_table.requester;
          e.Directory.busy <- true;
          (`Rebuilt, List.filter (fun n -> not (on_home n)) live)
        | None ->
          (* Every copy died with the node. *)
          let demand = List.exists (fun n -> S.miss n <> None) live in
          S.mark v (if demand then "crash.data_loss" else "crash.reinit");
          let data = data () in
          if demand && data = None then (`Lost, [])
          else begin
            let owner =
              match (S.miss v, data) with
              | Some me, Some bytes ->
                (* Complete the home node's miss locally: stalled
                   accesses observe [data_ready] through their entry and
                   re-run their checks against the restored copy. *)
                S.install v me bytes;
                me.Miss_table.data_ready <- true;
                me.Miss_table.acks_expected <- 0;
                me.Miss_table.acks_received <- 0;
                S.retire v me;
                me.Miss_table.requester
              | _ ->
                S.restore v data;
                home
            in
            S.set_base v State_table.Exclusive;
            S.raise_private v owner State_table.Exclusive;
            S.set_pending v false;
            own owner;
            (`Rebuilt, live)
          end
    in
    List.iter
      (fun n ->
        match S.miss n with
        | Some me ->
          S.mark n "crash.reissue";
          S.transmit (at me.Miss_table.requester) home
            (Msg.Req { kind = me.Miss_table.kind; block = S.block v })
        | None -> ())
      reissue;
    result
end
