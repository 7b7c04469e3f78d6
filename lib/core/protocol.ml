module Engine = Shasta_sim.Engine
module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Network = Shasta_net.Network
module Bitset = Shasta_util.Bitset
module Histogram = Shasta_util.Histogram

type ctx = {
  m : Machine.t;
  eng : Engine.proc;
  ps : Machine.proc_state;
  t : Timing.t;
  smp : bool;
}

let make_ctx m eng =
  let ps = m.Machine.procs.(Engine.pid eng) in
  ps.Machine.engine <- Some eng;
  {
    m;
    eng;
    ps;
    t = m.Machine.cfg.Config.timing;
    smp = m.Machine.cfg.Config.variant = Config.Smp;
  }

let machine ctx = ctx.m
let pid ctx = ctx.ps.Machine.pid
let node ctx = ctx.ps.Machine.node
let proc_state ctx = ctx.ps
let engine_proc ctx = ctx.eng
let timing ctx = ctx.t
let is_smp ctx = ctx.smp
let node_state ctx = ctx.m.Machine.nodes.(node ctx)
let node_image ctx = (node_state ctx).Machine.image

let check_table ctx =
  if ctx.smp then ctx.m.Machine.privates.(pid ctx)
  else (node_state ctx).Machine.table

(* ------------------------------------------------------------------ *)
(* Diagnosable protocol failures.                                      *)

exception
  Protocol_violation of {
    pid : int;
    block : int;
    state : State_table.base;
    detail : string;
  }

let () =
  Printexc.register_printer (function
    | Protocol_violation { pid; block; state; detail } ->
      Some
        (Printf.sprintf
           "Protocol_violation (proc %d, block %#x, node state %s): %s" pid
           block
           (match state with
           | State_table.Invalid -> "Invalid"
           | State_table.Shared -> "Shared"
           | State_table.Exclusive -> "Exclusive")
           detail)
    | _ -> None)

(* An impossible protocol configuration was reached while dispatching a
   message: raise with enough context to diagnose without a debugger. *)
let violation ctx ~block detail =
  let line = Layout.line_of ctx.m.Machine.layout block in
  let state = State_table.get (node_state ctx).Machine.table line in
  raise (Protocol_violation { pid = pid ctx; block; state; detail })

(* ------------------------------------------------------------------ *)
(* Observer hooks. Each site is a single match on the option: with no
   observer installed the hook costs one load and one branch, so the
   instrumented build stays within noise of the unhooked code, and no
   hook ever charges cycles — simulated time is bit-identical whether
   or not an observer is watching. *)

let fault_is ctx f = ctx.m.Machine.cfg.Config.fault = Some f

let obs_state ctx ~block ~from_ ~to_ =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_state ~by:(pid ctx) ~node:(node ctx) ~block ~from_ ~to_
      ~now:(Engine.now ctx.eng)

let obs_private ctx ~proc ~block ~from_ ~to_ =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_private ~by:(pid ctx) ~proc ~block ~from_ ~to_
      ~now:(Engine.now ctx.eng)

let obs_pending ctx ~block ~set =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_pending ~by:(pid ctx) ~node:(node ctx) ~block ~set
      ~now:(Engine.now ctx.eng)

let obs_pending_downgrade ctx ~block ~set =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_pending_downgrade ~by:(pid ctx) ~node:(node ctx) ~block ~set
      ~now:(Engine.now ctx.eng)

let obs_miss_start ctx ~block ~kind =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_miss_start ~proc:(pid ctx) ~block ~kind
      ~now:(Engine.now ctx.eng)

let obs_miss_end ctx ~block ~kind ~start =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_miss_end ~proc:(pid ctx) ~block ~kind ~start
      ~now:(Engine.now ctx.eng)

let obs_downgrade_ack ctx ~block =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_downgrade_ack ~proc:(pid ctx) ~block ~now:(Engine.now ctx.eng)

let obs_downgrade_done ctx ~block =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_downgrade_done ~proc:(pid ctx) ~block
      ~now:(Engine.now ctx.eng)

let obs_downgrade_queued ctx ~block ~src msg =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_downgrade_queued ~proc:(pid ctx) ~block ~src
      ~now:(Engine.now ctx.eng) msg

let obs_downgrade_replay ctx ~block ~src msg =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_downgrade_replay ~proc:(pid ctx) ~block ~src
      ~now:(Engine.now ctx.eng) msg

let obs_recv ctx ~src ~now msg =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_recv ~src ~dst:(pid ctx) ~now msg

let obs_lock_acquired ctx ~lock =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_lock_acquired ~proc:(pid ctx) ~lock ~now:(Engine.now ctx.eng)

let obs_lock_released ctx ~lock =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_lock_released ~proc:(pid ctx) ~lock ~now:(Engine.now ctx.eng)

let obs_barrier_arrive ctx ~barrier ~epoch =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_barrier_arrive ~proc:(pid ctx) ~barrier ~epoch
      ~now:(Engine.now ctx.eng)

let obs_barrier_leave ctx ~barrier ~epoch =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_barrier_leave ~proc:(pid ctx) ~barrier ~epoch
      ~now:(Engine.now ctx.eng)

(* ------------------------------------------------------------------ *)
(* Cycle accounting.                                                   *)

let charge ctx c =
  if not ctx.ps.Machine.finished then
    Stats.add_cycles ctx.ps.Machine.stats ctx.ps.Machine.category c;
  Engine.advance_local ctx.eng c

let charge_yield ctx c =
  if not ctx.ps.Machine.finished then
    Stats.add_cycles ctx.ps.Machine.stats ctx.ps.Machine.category c;
  Engine.advance ctx.eng c

let with_category ctx cat f =
  let saved = ctx.ps.Machine.category in
  ctx.ps.Machine.category <- cat;
  Fun.protect ~finally:(fun () -> ctx.ps.Machine.category <- saved) f

(* ------------------------------------------------------------------ *)
(* Geometry helpers.                                                   *)

let lines_of_block ctx block =
  let layout = ctx.m.Machine.layout in
  let first = Layout.line_of layout block in
  (first, Machine.block_size ctx.m block / layout.Layout.line_size)

let state_rank = function
  | State_table.Invalid -> 0
  | State_table.Shared -> 1
  | State_table.Exclusive -> 2

(* The [table] argument is always the node's shared table of [ctx]'s
   own node, so the observer hook can attribute the transition. *)
let set_block_state ctx table block st =
  let first, n = lines_of_block ctx block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    State_table.set table l st
  done;
  if st <> old then obs_state ctx ~block ~from_:old ~to_:st

let set_block_pending ctx table block v =
  let first, n = lines_of_block ctx block in
  for l = first to first + n - 1 do
    State_table.set_pending table l v
  done;
  obs_pending ctx ~block ~set:v

let set_block_pending_downgrade ctx table block v =
  let first, n = lines_of_block ctx block in
  for l = first to first + n - 1 do
    State_table.set_pending_downgrade table l v
  done;
  obs_pending_downgrade ctx ~block ~set:v

(* Raise a private state table to [st] (never downgrade). *)
let raise_private ctx p block st =
  let table = ctx.m.Machine.privates.(p) in
  let first, n = lines_of_block ctx block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    if state_rank (State_table.get table l) < state_rank st then
      State_table.set table l st
  done;
  if state_rank old < state_rank st then
    obs_private ctx ~proc:p ~block ~from_:old ~to_:st

(* Lower a private state table to [st] (never upgrade). *)
let lower_private ctx p block st =
  let table = ctx.m.Machine.privates.(p) in
  let first, n = lines_of_block ctx block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    if state_rank (State_table.get table l) > state_rank st then
      State_table.set table l st
  done;
  if state_rank old > state_rank st then
    obs_private ctx ~proc:p ~block ~from_:old ~to_:st

let private_state ctx p block =
  let table = ctx.m.Machine.privates.(p) in
  State_table.get table (Layout.line_of ctx.m.Machine.layout block)

(* ------------------------------------------------------------------ *)
(* Invalid-flag stamping, with batch deferral (§3.4.4).                *)

let block_in_active_batch ctx block =
  let ns = node_state ctx in
  let first, n = lines_of_block ctx block in
  let hit = ref false in
  for l = first to first + n - 1 do
    if Hashtbl.mem ns.Machine.batch_lines l then hit := true
  done;
  !hit

let write_flag_now ctx block =
  let ns = node_state ctx in
  let size = Machine.block_size ctx.m block in
  (* Preserve non-blocking-store bytes only while a future data reply
     will still merge around them (fetch in flight, or an ownership
     request chained behind a read). Once the entry's data is complete
     the stores have been serialized into the node copy -- and possibly
     shipped onward -- so a surrendered block must be stamped entirely,
     or a later flag-based load would read the stale word as valid. *)
  let skip =
    match Miss_table.find ns.Machine.misses ~block with
    | Some e
      when (not e.Miss_table.data_ready) || e.Miss_table.upgrade_after_reply ->
      e.Miss_table.store_ranges
    | Some _ | None -> []
  in
  match skip with
  | [] -> Image.write_invalid_flag ns.Machine.image ~addr:block ~len:size
  | _ ->
    let flags = Bytes.create size in
    for w = 0 to (size / 4) - 1 do
      Bytes.set_int32_le flags (4 * w) Image.invalid_flag32
    done;
    Image.write_bytes ns.Machine.image ~addr:block ~skip flags

let stamp_invalid ctx block =
  let ns = node_state ctx in
  if fault_is ctx Config.Skip_flag_stamp then
    (* Test-only fault: leave stale application data behind where the
       invalid-flag pattern belongs. *)
    ()
  else if block_in_active_batch ctx block then
    Hashtbl.replace ns.Machine.deferred_flags block ()
  else write_flag_now ctx block

(* ------------------------------------------------------------------ *)
(* Message handling. [deliver] routes to the network unless the
   destination is this very processor, in which case the handler runs
   inline (a processor never sends itself a message; this is the
   requester-is-home fast path of Base-Shasta). *)

let rec deliver ctx dst msg =
  if dst = pid ctx then handle_message ctx ~src:(pid ctx) msg
  else begin
    if not (Shasta_net.Topology.same_node ctx.m.Machine.topo (pid ctx) dst) then
      charge ctx ctx.t.Timing.remote_send;
    let now = Engine.now ctx.eng in
    Network.send ctx.m.Machine.net ~src:(pid ctx) ~dst ~now
      ~size:(Msg.size_bytes msg) msg;
    match ctx.m.Machine.observer with
    | None -> ()
    | Some o -> o.Observer.on_send ~src:(pid ctx) ~dst ~now msg
  end

and handle_message ctx ~src msg =
  charge ctx ctx.t.Timing.handler_base;
  (match msg with
  | Msg.Req _ | Msg.Fwd _ | Msg.Data_reply _ | Msg.Upgrade_reply _
  | Msg.Invalidate _ | Msg.Inval_ack _ | Msg.Sharing_wb _ | Msg.Own_ack _
  | Msg.Downgrade _ ->
    if ctx.smp then charge ctx ctx.t.Timing.smp_lock
  | Msg.Lock_req _ | Msg.Lock_grant _ | Msg.Lock_release _
  | Msg.Barrier_arrive _ | Msg.Barrier_release _ ->
    ());
  match msg with
  | Msg.Req { kind; block } -> handle_dir_request ctx ~src ~kind ~block
  | Msg.Fwd { kind; block; requester; inval_acks } ->
    handle_fwd ctx ~src ~kind ~block ~requester ~inval_acks msg
  | Msg.Data_reply { kind; block; data; from_home; inval_acks } ->
    handle_data_reply ctx ~kind ~block ~data ~from_home ~inval_acks
  | Msg.Upgrade_reply { block; inval_acks } ->
    handle_upgrade_reply ctx ~block ~inval_acks
  | Msg.Invalidate { block; requester } ->
    handle_invalidate ctx ~src ~block ~requester msg
  | Msg.Inval_ack { block } -> handle_inval_ack ctx ~block
  | Msg.Sharing_wb { block; new_sharer } ->
    handle_sharing_wb ctx ~block ~new_sharer
  | Msg.Own_ack { block } -> handle_own_ack ctx ~block
  | Msg.Downgrade { block; target } -> handle_downgrade_msg ctx ~block ~target
  | Msg.Lock_req { lock } -> handle_lock_req ctx ~src ~lock
  | Msg.Lock_grant { lock } -> Hashtbl.replace ctx.ps.Machine.granted lock ()
  | Msg.Lock_release { lock } -> handle_lock_release ctx ~lock
  | Msg.Barrier_arrive { barrier } -> handle_barrier_arrive ctx ~src ~barrier
  | Msg.Barrier_release { barrier; generation } ->
    if
      ctx.m.Machine.cfg.Config.smp_sync
      && ctx.m.Machine.cfg.Config.clustering > 1
    then begin
      (* Publish the release through the node's shared memory. *)
      let tbl = ctx.m.Machine.barrier_local.(node ctx) in
      let bs =
        match Hashtbl.find_opt tbl barrier with
        | Some bs -> bs
        | None ->
          let bs = { Machine.arrived = 0; generation = 0; arrived_procs = [] } in
          Hashtbl.replace tbl barrier bs;
          bs
      in
      bs.Machine.generation <- generation
    end
    else Hashtbl.replace ctx.ps.Machine.barrier_seen barrier generation

(* ---------------- Directory (home) side ---------------- *)

and dir_entry ctx block =
  (* The entry lives in the home processor's directory; with the
     share_directory extension the handler may be running on a
     colocated processor, so resolve the home explicitly. *)
  let home = Machine.home_of_block ctx.m block in
  Directory.entry ctx.m.Machine.dirs.(home) ~block ~home

and node_has_valid ctx block =
  let ns = node_state ctx in
  let line = Layout.line_of ctx.m.Machine.layout block in
  let base = State_table.get ns.Machine.table line in
  base <> State_table.Invalid
  && (not (State_table.pending ns.Machine.table line))
  && not (State_table.pending_downgrade ns.Machine.table line)

and handle_dir_request ctx ~src ~kind ~block =
  charge ctx ctx.t.Timing.handler_home;
  let e = dir_entry ctx block in
  if e.Directory.busy then Directory.push_queued e ~src (Msg.Req { kind; block })
  else
    match kind with
    | Msg.Read -> handle_read_request ctx ~src ~block e
    | Msg.Readex -> handle_readex_request ctx ~src ~block e
    | Msg.Upgrade ->
      if Bitset.mem src e.Directory.sharers then
        handle_upgrade_request ctx ~src ~block e
      else
        (* The requester's copy was invalidated while its upgrade was in
           flight: supply data as for a read-exclusive. *)
        handle_readex_request ctx ~src ~block e

and handle_read_request ctx ~src ~block e =
  let ns = node_state ctx in
  let line = Layout.line_of ctx.m.Machine.layout block in
  if node_has_valid ctx block then begin
    match State_table.get ns.Machine.table line with
    | State_table.Shared ->
      (* Home has a clean copy: serve directly (2 hops). *)
      e.Directory.sharers <-
        Bitset.add src (Bitset.add (pid ctx) e.Directory.sharers);
      reply_data ctx ~dst:src ~kind:Msg.Read ~block ~inval_acks:0
    | State_table.Exclusive ->
      e.Directory.busy <- true;
      start_node_downgrade ctx ~block ~target:State_table.Shared
        ~deferred:(Downgrade.Reply_read { requester = src })
    | State_table.Invalid ->
      violation ctx ~block "read request: home node valid yet state Invalid"
  end
  else begin
    e.Directory.busy <- true;
    deliver ctx e.Directory.owner
      (Msg.Fwd { kind = Msg.Read; block; requester = src; inval_acks = 0 })
  end

(* Send an invalidation to a sharer — except that a sharer on this very
   node must be invalidated inline: the home has already serialized the
   invalidating transaction, and leaving its own node's copy valid until
   a sibling polls the message would let a later request be served from
   the dead copy. *)
and send_invalidate ctx ~block ~requester q =
  if Machine.node_of ctx.m q = node ctx then
    handle_invalidate ctx ~src:(pid ctx) ~block ~requester
      (Msg.Invalidate { block; requester })
  else deliver ctx q (Msg.Invalidate { block; requester })

and handle_readex_request ctx ~src ~block e =
  if node_has_valid ctx block then begin
    (* The home node supplies the data and is itself invalidated;
       sharers on other nodes (except the requester's) are invalidated
       with acknowledgements flowing to the requester. *)
    let invals =
      List.filter
        (fun q ->
          Machine.node_of ctx.m q <> node ctx
          && Machine.node_of ctx.m q <> Machine.node_of ctx.m src)
        (Bitset.elements e.Directory.sharers)
    in
    List.iter (send_invalidate ctx ~block ~requester:src) invals;
    let acks = List.length invals in
    e.Directory.owner <- src;
    e.Directory.sharers <- Bitset.singleton src;
    e.Directory.busy <- true;
    start_node_downgrade ctx ~block ~target:State_table.Invalid
      ~deferred:(Downgrade.Reply_readex { requester = src; inval_acks = acks })
  end
  else begin
    let owner = e.Directory.owner in
    let invals =
      List.filter
        (fun q ->
          Machine.node_of ctx.m q <> Machine.node_of ctx.m owner
          && Machine.node_of ctx.m q <> Machine.node_of ctx.m src)
        (Bitset.elements e.Directory.sharers)
    in
    List.iter (send_invalidate ctx ~block ~requester:src) invals;
    let acks = List.length invals in
    e.Directory.owner <- src;
    e.Directory.sharers <- Bitset.singleton src;
    e.Directory.busy <- true;
    deliver ctx owner
      (Msg.Fwd { kind = Msg.Readex; block; requester = src; inval_acks = acks })
  end

and handle_upgrade_request ctx ~src ~block e =
  let invals =
    List.filter
      (fun q -> Machine.node_of ctx.m q <> Machine.node_of ctx.m src)
      (Bitset.elements e.Directory.sharers)
  in
  List.iter (send_invalidate ctx ~block ~requester:src) invals;
  e.Directory.owner <- src;
  e.Directory.sharers <- Bitset.singleton src;
  deliver ctx src (Msg.Upgrade_reply { block; inval_acks = List.length invals })

and drain_dir_queue ctx block =
  let e = dir_entry ctx block in
  let rec loop () =
    if not e.Directory.busy then
      match Directory.pop_queued e with
      | Some (src, Msg.Req { kind; block = b }) ->
        assert (b = block);
        (match kind with
        | Msg.Read -> handle_read_request ctx ~src ~block e
        | Msg.Readex -> handle_readex_request ctx ~src ~block e
        | Msg.Upgrade ->
          if Bitset.mem src e.Directory.sharers then
            handle_upgrade_request ctx ~src ~block e
          else handle_readex_request ctx ~src ~block e);
        loop ()
      | Some (_, m) ->
        violation ctx ~block
          ("directory queue held a non-request message: " ^ Msg.describe m)
      | None -> ()
  in
  loop ()

and handle_sharing_wb ctx ~block ~new_sharer =
  let e = dir_entry ctx block in
  e.Directory.sharers <-
    Bitset.add new_sharer (Bitset.add e.Directory.owner e.Directory.sharers);
  e.Directory.busy <- false;
  drain_dir_queue ctx block

and handle_own_ack ctx ~block =
  let e = dir_entry ctx block in
  e.Directory.busy <- false;
  drain_dir_queue ctx block

(* ---------------- Owner / sharer side ---------------- *)

and snapshot_block ctx block =
  let ns = node_state ctx in
  let size = Machine.block_size ctx.m block in
  Image.snapshot ns.Machine.image ~addr:block ~len:size

and send_data ctx ~dst ~kind ~block ~inval_acks data =
  let from_home = pid ctx = Machine.home_of_block ctx.m block in
  deliver ctx dst (Msg.Data_reply { kind; block; data; from_home; inval_acks })

and reply_data ctx ~dst ~kind ~block ~inval_acks =
  send_data ctx ~dst ~kind ~block ~inval_acks (snapshot_block ctx block)

and handle_fwd ctx ~src ~kind ~block ~requester ~inval_acks msg =
  let ns = node_state ctx in
  let line = Layout.line_of ctx.m.Machine.layout block in
  match Downgrade.find ns.Machine.downgrades ~block with
  | Some dg ->
    Downgrade.push_queued dg ~src msg;
    obs_downgrade_queued ctx ~block ~src msg
  | None -> (
    match Miss_table.find ns.Machine.misses ~block with
    | Some e
      when (not e.Miss_table.data_ready)
           && State_table.get ns.Machine.table line = State_table.Invalid ->
      (* Our data is genuinely in flight: defer until it lands. When the
         pending request is an upgrade the node still holds a valid
         (shared) copy and the forwarded request — serialized before our
         upgrade at the home — must be served immediately instead;
         deferring it would deadlock against the home's busy queue. *)
      e.Miss_table.queued_fwds <- (src, msg) :: e.Miss_table.queued_fwds
    | Some _ | None -> (
      let base = State_table.get ns.Machine.table line in
      match kind with
      | Msg.Read -> (
        match base with
        | State_table.Exclusive ->
          start_node_downgrade ctx ~block ~target:State_table.Shared
            ~deferred:(Downgrade.Reply_read { requester })
        | State_table.Shared ->
          execute_deferred ctx ~block ~target:State_table.Shared
            ~deferred:(Downgrade.Reply_read { requester })
        | State_table.Invalid ->
          violation ctx ~block "read forwarded to an owner with no copy")
      | Msg.Readex ->
        if base = State_table.Invalid then
          violation ctx ~block "readex forwarded to an owner with no copy";
        start_node_downgrade ctx ~block ~target:State_table.Invalid
          ~deferred:(Downgrade.Reply_readex { requester; inval_acks })
      | Msg.Upgrade ->
        violation ctx ~block
          "upgrade forwarded to an owner (upgrades are home-served)"))

and handle_invalidate ctx ~src ~block ~requester msg =
  let ns = node_state ctx in
  match Downgrade.find ns.Machine.downgrades ~block with
  | Some dg ->
    Downgrade.push_queued dg ~src msg;
    obs_downgrade_queued ctx ~block ~src msg
  | None -> (
    match Miss_table.find ns.Machine.misses ~block with
    | Some e when not e.Miss_table.data_ready ->
      (* The invalidation raced with our refetch and targets the copy we
         held when the home serialized the invalidating write — always
         before our own request. For a pure read fetch the reply data is
         therefore already stale: apply it, wake waiters, invalidate
         immediately. For an ownership fetch (read-exclusive, upgrade,
         or a read with a chained ownership request) the reply grants
         fresh exclusive ownership serialized after the invalidation —
         but the node's CURRENT (shared) copy must die right now, or
         sibling processors could keep reading it after the invalidating
         writer's release completes. *)
      if e.Miss_table.kind = Msg.Read then
        (* Applies to chained-upgrade reads too: the invalidation-aware
           apply path stamps before the chained ownership request picks
           its kind, so the chain fetches fresh data. *)
        e.Miss_table.inval_after_reply <- true
      else begin
        let line = Layout.line_of ctx.m.Machine.layout block in
        if State_table.get ns.Machine.table line <> State_table.Invalid then begin
          ns.Machine.downgrade_epoch <- ns.Machine.downgrade_epoch + 1;
          stamp_invalid ctx block;
          (* Privates drop before the node entry so that no observer
             (and no sibling in real memory order) ever sees a private
             entry exceeding the node's; there is no scheduling point in
             between, so the order is otherwise invisible. *)
          List.iter
            (fun q -> lower_private ctx q block State_table.Invalid)
            (Config.procs_of_node ctx.m.Machine.cfg (node ctx));
          set_block_state ctx ns.Machine.table block State_table.Invalid
        end
      end;
      deliver ctx requester (Msg.Inval_ack { block })
    | Some _ | None -> (
      let line = Layout.line_of ctx.m.Machine.layout block in
      match State_table.get ns.Machine.table line with
      | State_table.Shared | State_table.Exclusive ->
        start_node_downgrade ctx ~block ~target:State_table.Invalid
          ~deferred:(Downgrade.Inval_done { requester })
      | State_table.Invalid ->
        (* Stale invalidation; nothing to do but acknowledge. *)
        deliver ctx requester (Msg.Inval_ack { block })))

(* ---------------- Downgrades (§3.4.3) ---------------- *)

and start_node_downgrade ctx ~block ~target ~deferred =
  let ns = node_state ctx in
  charge ctx ctx.t.Timing.downgrade_initiate;
  let siblings =
    List.filter
      (fun q -> q <> pid ctx)
      (Config.procs_of_node ctx.m.Machine.cfg (node ctx))
  in
  let targets =
    List.filter
      (fun q -> state_rank (private_state ctx q block) > state_rank target)
      siblings
  in
  lower_private ctx (pid ctx) block target;
  let n = List.length targets in
  Histogram.add ctx.ps.Machine.stats.Stats.downgrade_events n;
  ctx.ps.Machine.stats.Stats.downgrades_sent <-
    ctx.ps.Machine.stats.Stats.downgrades_sent + n;
  if n = 0 then execute_deferred ctx ~block ~target ~deferred
  else begin
    ignore (Downgrade.add ns.Machine.downgrades ~block ~target ~deferred ~remaining:n);
    set_block_pending_downgrade ctx ns.Machine.table block true;
    List.iter
      (fun q ->
        charge ctx ctx.t.Timing.downgrade_send;
        deliver ctx q (Msg.Downgrade { block; target }))
      targets
  end

and handle_downgrade_msg ctx ~block ~target =
  charge ctx ctx.t.Timing.handler_downgrade;
  if not (fault_is ctx Config.Skip_private_downgrade) then
    lower_private ctx (pid ctx) block target;
  obs_downgrade_ack ctx ~block;
  let ns = node_state ctx in
  match Downgrade.find ns.Machine.downgrades ~block with
  | None ->
    violation ctx ~block "downgrade message with no downgrade in progress"
  | Some dg ->
    dg.Downgrade.remaining <- dg.Downgrade.remaining - 1;
    if dg.Downgrade.remaining = 0 then begin
      Downgrade.remove ns.Machine.downgrades dg;
      set_block_pending_downgrade ctx ns.Machine.table block false;
      execute_deferred ctx ~block ~target:dg.Downgrade.target
        ~deferred:dg.Downgrade.deferred;
      List.iter
        (fun (src, msg) ->
          obs_downgrade_replay ctx ~block ~src msg;
          handle_message ctx ~src msg)
        (Downgrade.take_queued dg)
    end

and execute_deferred ctx ~block ~target ~deferred =
  let ns = node_state ctx in
  ns.Machine.downgrade_epoch <- ns.Machine.downgrade_epoch + 1;
  let home = Machine.home_of_block ctx.m block in
  obs_downgrade_done ctx ~block;
  (match Downgrade.find ns.Machine.downgrades ~block with
  | Some _ ->
    violation ctx ~block "deferred action ran with a downgrade still pending"
  | None -> ());
  (* The snapshot is taken and this node's state fully downgraded
     BEFORE any message is sent: a reply to a requester on this very
     node is handled inline, and it must observe the downgraded state
     (otherwise installing its fresh copy would be undone below). *)
  match deferred with
  | Downgrade.Reply_read { requester } ->
    assert (target = State_table.Shared);
    let data = snapshot_block ctx block in
    set_block_state ctx ns.Machine.table block State_table.Shared;
    send_data ctx ~dst:requester ~kind:Msg.Read ~block ~inval_acks:0 data;
    if pid ctx = home then handle_sharing_wb ctx ~block ~new_sharer:requester
    else deliver ctx home (Msg.Sharing_wb { block; new_sharer = requester })
  | Downgrade.Reply_readex { requester; inval_acks } ->
    assert (target = State_table.Invalid);
    ignore home;
    let data = snapshot_block ctx block in
    stamp_invalid ctx block;
    set_block_state ctx ns.Machine.table block State_table.Invalid;
    (* The home's busy bit is cleared by the REQUESTER's Own_ack when it
       applies this data: forwarding a later request to the new owner
       before its data has landed would let it serve stale bytes. *)
    send_data ctx ~dst:requester ~kind:Msg.Readex ~block ~inval_acks data
  | Downgrade.Inval_done { requester } ->
    assert (target = State_table.Invalid);
    stamp_invalid ctx block;
    set_block_state ctx ns.Machine.table block State_table.Invalid;
    deliver ctx requester (Msg.Inval_ack { block })
  | Downgrade.Recovered ->
    (* The requester of the original deferred action died; recovery
       rewrote the entry. Complete the downgrade locally so the node
       state matches the already-lowered sibling private entries, and
       send nothing. *)
    if target = State_table.Invalid then stamp_invalid ctx block;
    set_block_state ctx ns.Machine.table block target

(* ---------------- Requester side: replies ---------------- *)

and finish_entry ctx e =
  let ns = node_state ctx in
  obs_miss_end ctx ~block:e.Miss_table.block ~kind:e.Miss_table.kind
    ~start:e.Miss_table.start_cycles;
  Miss_table.remove ns.Machine.misses e;
  Bitset.iter
    (fun p ->
      let q = ctx.m.Machine.procs.(p) in
      q.Machine.outstanding_stores <- q.Machine.outstanding_stores - 1)
    e.Miss_table.store_procs

and complete_if_ready ctx e =
  if Miss_table.complete e then begin
    let fwds = List.rev e.Miss_table.queued_fwds in
    e.Miss_table.queued_fwds <- [];
    finish_entry ctx e;
    List.iter (fun (src, msg) -> handle_message ctx ~src msg) fwds
  end
  else if e.Miss_table.data_ready then begin
    (* Still awaiting acks, but the data is valid: serve queued
       forwarded requests now. *)
    let fwds = List.rev e.Miss_table.queued_fwds in
    e.Miss_table.queued_fwds <- [];
    List.iter (fun (src, msg) -> handle_message ctx ~src msg) fwds
  end

and handle_data_reply ctx ~kind ~block ~data ~from_home ~inval_acks =
  charge ctx ctx.t.Timing.handler_data_apply;
  let ns = node_state ctx in
  match Miss_table.find ns.Machine.misses ~block with
  | None -> violation ctx ~block "data reply with no outstanding miss"
  | Some e ->
    assert (not e.Miss_table.data_ready);
    (* A refetch supersedes any flag write deferred by an active batch. *)
    Hashtbl.remove ns.Machine.deferred_flags block;
    let batch_skip =
      Option.value ~default:[] (Hashtbl.find_opt ns.Machine.batch_wranges block)
    in
    Image.write_bytes ns.Machine.image ~addr:block
      ~skip:(e.Miss_table.store_ranges @ batch_skip)
      data;
    let new_state =
      match kind with
      | Msg.Read -> State_table.Shared
      | Msg.Readex | Msg.Upgrade -> State_table.Exclusive
    in
    set_block_state ctx ns.Machine.table block new_state;
    set_block_pending ctx ns.Machine.table block false;
    raise_private ctx (pid ctx) block new_state;
    e.Miss_table.data_ready <- true;
    e.Miss_table.acks_expected <- inval_acks;
    if kind = Msg.Readex then begin
      (* Completion acknowledgement of the ownership transfer. *)
      let home = Machine.home_of_block ctx.m block in
      if pid ctx = home then handle_own_ack ctx ~block
      else deliver ctx home (Msg.Own_ack { block })
    end;
    Stats.record_miss ctx.ps.Machine.stats
      { Stats.kind = e.Miss_table.kind; three_hop = not from_home };
    if e.Miss_table.kind = Msg.Read then
      Stats.record_read_latency ctx.ps.Machine.stats
        (Engine.now ctx.eng - e.Miss_table.start_cycles);
    if e.Miss_table.inval_after_reply then begin
      (* Stalled accesses observe [data_ready] and re-run their checks;
         the block is already gone again. *)
      e.Miss_table.inval_after_reply <- false;
      stamp_invalid ctx block;
      lower_private ctx (pid ctx) block State_table.Invalid;
      set_block_state ctx ns.Machine.table block State_table.Invalid
    end;
    if e.Miss_table.upgrade_after_reply && e.Miss_table.kind = Msg.Read then begin
      (* A store merged into this read entry while it was pending: chain
         an ownership request, keeping the entry (and its merged store
         ranges) alive so that release operations wait for it. *)
      e.Miss_table.upgrade_after_reply <- false;
      e.Miss_table.data_ready <- false;
      e.Miss_table.acks_expected <- -1;
      let line = Layout.line_of ctx.m.Machine.layout block in
      let kind2 =
        if State_table.get ns.Machine.table line = State_table.Shared then
          Msg.Upgrade
        else Msg.Readex
      in
      e.Miss_table.kind <- kind2;
      set_block_pending ctx ns.Machine.table block true;
      charge ctx ctx.t.Timing.miss_setup;
      deliver ctx (Machine.home_of_block ctx.m block)
        (Msg.Req { kind = kind2; block })
    end
    else complete_if_ready ctx e

and handle_upgrade_reply ctx ~block ~inval_acks =
  charge ctx ctx.t.Timing.handler_data_apply;
  let ns = node_state ctx in
  match Miss_table.find ns.Machine.misses ~block with
  | None -> violation ctx ~block "upgrade reply with no outstanding miss"
  | Some e ->
    assert (not e.Miss_table.data_ready);
    set_block_state ctx ns.Machine.table block State_table.Exclusive;
    set_block_pending ctx ns.Machine.table block false;
    raise_private ctx (pid ctx) block State_table.Exclusive;
    e.Miss_table.data_ready <- true;
    e.Miss_table.acks_expected <- inval_acks;
    Stats.record_miss ctx.ps.Machine.stats
      { Stats.kind = Msg.Upgrade; three_hop = false };
    complete_if_ready ctx e

and handle_inval_ack ctx ~block =
  let ns = node_state ctx in
  match Miss_table.find ns.Machine.misses ~block with
  | None -> violation ctx ~block "invalidation ack with no outstanding miss"
  | Some e ->
    e.Miss_table.acks_received <- e.Miss_table.acks_received + 1;
    complete_if_ready ctx e

(* ---------------- Synchronization ---------------- *)

and handle_lock_req ctx ~src ~lock =
  charge ctx ctx.t.Timing.sync_manager;
  let ls = Hashtbl.find ctx.m.Machine.locks lock in
  if not ls.Machine.held then begin
    ls.Machine.held <- true;
    ls.Machine.holder <- src;
    deliver ctx src (Msg.Lock_grant { lock })
  end
  else ls.Machine.lock_queue <- src :: ls.Machine.lock_queue

and handle_lock_release ctx ~lock =
  charge ctx ctx.t.Timing.sync_manager;
  let ls = Hashtbl.find ctx.m.Machine.locks lock in
  match List.rev ls.Machine.lock_queue with
  | [] ->
    ls.Machine.held <- false;
    ls.Machine.holder <- -1
  | oldest :: rest ->
    ls.Machine.lock_queue <- List.rev rest;
    ls.Machine.holder <- oldest;
    deliver ctx oldest (Msg.Lock_grant { lock })

and handle_barrier_arrive ctx ~src ~barrier =
  charge ctx ctx.t.Timing.sync_manager;
  let cfg = ctx.m.Machine.cfg in
  let hierarchical = cfg.Config.smp_sync && cfg.Config.clustering > 1 in
  (* After a crash the barrier waits only for live participants; the
     arrival pids are recorded so recovery can subtract arrivals from
     processors that died mid-episode. *)
  let expected =
    if hierarchical then Machine.live_nodes ctx.m else Machine.live_procs ctx.m
  in
  let bs = Hashtbl.find ctx.m.Machine.barriers barrier in
  bs.Machine.arrived <- bs.Machine.arrived + 1;
  bs.Machine.arrived_procs <- src :: bs.Machine.arrived_procs;
  if bs.Machine.arrived >= expected then begin
    bs.Machine.arrived <- 0;
    bs.Machine.arrived_procs <- [];
    bs.Machine.generation <- bs.Machine.generation + 1;
    let generation = bs.Machine.generation in
    if hierarchical then
      for n = 0 to Config.nnodes cfg - 1 do
        if not ctx.m.Machine.dead_nodes.(n) then
          deliver ctx (List.hd (Config.procs_of_node cfg n))
            (Msg.Barrier_release { barrier; generation })
      done
    else
      for p = 0 to cfg.Config.nprocs - 1 do
        if not ctx.m.Machine.dead.(p) then
          deliver ctx p (Msg.Barrier_release { barrier; generation })
      done
  end

(* ------------------------------------------------------------------ *)
(* Polling.                                                            *)

let poll_handle ctx =
  let cat =
    if ctx.ps.Machine.category = Stats.Task then Stats.Message
    else ctx.ps.Machine.category
  in
  let rec loop () =
    (* A scheduling point must precede every queue observation: past the
       run-ahead horizon the queue may still be missing virtually-earlier
       sends from processors frozen behind this one, and each handled
       message advances the clock, so re-check before every probe. Below
       the horizon the yield is elided and this costs one comparison. *)
    Engine.yield ctx.eng;
    let now = Engine.now ctx.eng in
    match Network.poll ctx.m.Machine.net ~dst:(pid ctx) ~now with
    | Some (src, msg) ->
      obs_recv ctx ~src ~now msg;
      handle_message ctx ~src msg;
      loop ()
    | None -> ()
  in
  with_category ctx cat loop

let poll ctx =
  (* The scheduling point must come before the emptiness observation for
     the same reason as above; after it, an arrival-time compare decides
     the common nothing-due case without entering the handler loop (no
     category bookkeeping, no closure). *)
  Engine.yield ctx.eng;
  if
    Network.earliest_arrival ctx.m.Machine.net ~dst:(pid ctx)
    <= Engine.now ctx.eng
  then poll_handle ctx

let op_tick ctx =
  ctx.ps.Machine.ops_since_poll <- ctx.ps.Machine.ops_since_poll + 1;
  if ctx.ps.Machine.ops_since_poll >= ctx.t.Timing.poll_interval_ops then begin
    ctx.ps.Machine.ops_since_poll <- 0;
    if ctx.m.Machine.cfg.Config.checks_enabled then
      charge ctx ctx.t.Timing.poll;
    poll ctx
  end

(* Spin-wait, re-checking [pred] and the message queue every
   [stall_gap] cycles. Iterations whose lattice point lies strictly
   below the visibility horizon are provably no-ops (frozen peers, an
   empty probe, a false predicate), so they are collapsed into a single
   advance ([Engine.idle_skip]) — the cycle charge and every observable
   re-check point are identical to stepping. *)
let stall ctx cat pred =
  let gap = ctx.t.Timing.stall_gap in
  with_category ctx cat (fun () ->
      while not (pred ()) do
        poll ctx;
        if not (pred ()) then
          charge_yield ctx (gap + Engine.idle_skip ctx.eng ~quantum:gap)
      done)

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

(* Route a directory-bound message. With the share_directory extension
   (5), a sender colocated with the home's node manipulates the
   directory directly — the home's data structures are shared within
   the node — eliminating the intra-node message and its reply hop. *)
let deliver_dir ctx home msg =
  if
    home <> pid ctx
    && (machine ctx).Machine.cfg.Config.share_directory
    && Machine.node_of ctx.m home = node ctx
  then begin
    if ctx.smp then charge ctx ctx.t.Timing.smp_lock;
    handle_message ctx ~src:(pid ctx) msg
  end
  else deliver ctx home msg

let issue_request ctx ~block ~kind =
  let ns = node_state ctx in
  assert (Miss_table.find ns.Machine.misses ~block = None);
  let e =
    Miss_table.add ns.Machine.misses ~block ~requester:(pid ctx) ~kind
      ~now:(Engine.now ctx.eng)
  in
  obs_miss_start ctx ~block ~kind;
  set_block_pending ctx ns.Machine.table block true;
  charge ctx ctx.t.Timing.miss_setup;
  deliver_dir ctx (Machine.home_of_block ctx.m block) (Msg.Req { kind; block });
  e

(* ------------------------------------------------------------------ *)
(* Miss paths called from the Dsm layer.                               *)

let load_miss ctx ~addr =
  let block = Machine.block_base ctx.m addr in
  let ns = node_state ctx in
  let line = Layout.line_of ctx.m.Machine.layout addr in
  charge ctx ctx.t.Timing.protocol_entry;
  if ctx.smp then charge ctx ctx.t.Timing.smp_lock;
  let base = State_table.get ns.Machine.table line in
  if base <> State_table.Invalid then begin
    (* The node has the data, so the flag value is application data: a
       false miss — or, under SMP, possibly just a private-state miss. *)
    if State_table.pending_downgrade ns.Machine.table line then
      (* Pre-downgrade state suffices for a load; consume the value now
         without touching the private state (§3.4.3). *)
      with_category ctx Stats.Other (fun () ->
          charge ctx ctx.t.Timing.private_upgrade)
    else if ctx.smp && state_rank (private_state ctx (pid ctx) block) = 0 then begin
      raise_private ctx (pid ctx) block State_table.Shared;
      ctx.ps.Machine.stats.Stats.private_upgrades <-
        ctx.ps.Machine.stats.Stats.private_upgrades + 1;
      with_category ctx Stats.Other (fun () ->
          charge ctx ctx.t.Timing.private_upgrade)
    end;
    ctx.ps.Machine.stats.Stats.false_misses <-
      ctx.ps.Machine.stats.Stats.false_misses + 1;
    `Valid
  end
  else
    match Miss_table.find ns.Machine.misses ~block with
    | Some e when not e.Miss_table.data_ready ->
      stall ctx Stats.Read (fun () -> e.Miss_table.data_ready);
      `Retry
    | Some _ ->
      (* The previous transaction is still collecting invalidation acks
         and the block has been invalidated again underneath it: a new
         request must wait for the old entry to drain. *)
      stall ctx Stats.Read (fun () ->
          Option.is_none (Miss_table.find ns.Machine.misses ~block));
      `Retry
    | None ->
      let e = issue_request ctx ~block ~kind:Msg.Read in
      stall ctx Stats.Read (fun () -> e.Miss_table.data_ready);
      `Retry

let under_store_limit ctx =
  ctx.ps.Machine.outstanding_stores < ctx.t.Timing.max_outstanding_stores

(* The outstanding-store limit is enforced by stalling, and any stall can
   complete or remove a miss entry, so the whole decision is retried from
   scratch after every stall: bookkeeping mutations happen only on paths
   with no intervening scheduling point. *)
let rec store_miss ctx ~addr ~len write =
  let block = Machine.block_base ctx.m addr in
  let ns = node_state ctx in
  let line = Layout.line_of ctx.m.Machine.layout addr in
  charge ctx ctx.t.Timing.protocol_entry;
  if ctx.smp then charge ctx ctx.t.Timing.smp_lock;
  let base = State_table.get ns.Machine.table line in
  let pdg = State_table.pending_downgrade ns.Machine.table line in
  if pdg && base = State_table.Exclusive then
    (* Pre-downgrade state suffices: perform the store under the lock;
       the downgrade's data snapshot will include it (§3.4.3). *)
    with_category ctx Stats.Other (fun () ->
        charge ctx ctx.t.Timing.private_upgrade;
        write ns.Machine.image)
  else if (not pdg) && base = State_table.Exclusive then begin
    if ctx.smp && state_rank (private_state ctx (pid ctx) block) < 2 then begin
      raise_private ctx (pid ctx) block State_table.Exclusive;
      ctx.ps.Machine.stats.Stats.private_upgrades <-
        ctx.ps.Machine.stats.Stats.private_upgrades + 1;
      with_category ctx Stats.Other (fun () ->
          charge ctx ctx.t.Timing.private_upgrade)
    end;
    write ns.Machine.image
  end
  else
    match Miss_table.find ns.Machine.misses ~block with
    | Some { Miss_table.data_ready = true; _ } ->
      (* The entry's data phase is over (it is only draining
         acknowledgements) and the node no longer holds the block
         exclusively — it was invalidated or downgraded to shared while
         the entry lingered. No future reply would merge around a range
         recorded now, so the store must wait for the entry to retire
         and run its own ownership transaction. *)
      stall ctx Stats.Write (fun () ->
          Option.is_none (Miss_table.find ns.Machine.misses ~block));
      store_miss ctx ~addr ~len write
    | Some e ->
      if
        Bitset.mem (pid ctx) e.Miss_table.store_procs || under_store_limit ctx
      then begin
        if not (Bitset.mem (pid ctx) e.Miss_table.store_procs) then
          ctx.ps.Machine.outstanding_stores <-
            ctx.ps.Machine.outstanding_stores + 1;
        Miss_table.add_store_range e ~off:(addr - block) ~len ~proc:(pid ctx);
        if e.Miss_table.kind = Msg.Read then
          e.Miss_table.upgrade_after_reply <- true;
        write ns.Machine.image
      end
      else begin
        stall ctx Stats.Write (fun () -> under_store_limit ctx);
        store_miss ctx ~addr ~len write
      end
    | None ->
      if under_store_limit ctx then begin
        let kind =
          if base = State_table.Shared then Msg.Upgrade else Msg.Readex
        in
        let e =
          Miss_table.add ns.Machine.misses ~block ~requester:(pid ctx) ~kind
            ~now:(Engine.now ctx.eng)
        in
        obs_miss_start ctx ~block ~kind;
        set_block_pending ctx ns.Machine.table block true;
        ctx.ps.Machine.outstanding_stores <-
          ctx.ps.Machine.outstanding_stores + 1;
        Miss_table.add_store_range e ~off:(addr - block) ~len ~proc:(pid ctx);
        (* Apply the store before the request goes out: if the request is
           handled inline (home is this processor) and replied instantly,
           the reply merge must already see our bytes in memory. *)
        write ns.Machine.image;
        charge ctx ctx.t.Timing.miss_setup;
        deliver ctx (Machine.home_of_block ctx.m block)
          (Msg.Req { kind; block })
      end
      else begin
        stall ctx Stats.Write (fun () -> under_store_limit ctx);
        store_miss ctx ~addr ~len write
      end

(* ---------------- Batching (§3.4.4) ---------------- *)

type batch_token = {
  b_lines : int list;
  b_wpieces : (int * int * int) list;
      (** batched write ranges split at block boundaries:
          (block, block-relative offset, length) *)
}

(* Fetch one line to a sufficient state — a single fetch, no
   re-verification. If the block is downgraded again while the rest of
   the batch is being assembled, the batch markers keep its bytes in
   memory (flag writes deferred) for the batched loads, and batch_end
   replays the batched stores coherently. *)
let rec ensure_line ctx line need =
  let layout = ctx.m.Machine.layout in
  let addr = Layout.addr_of_line layout line in
  let block = Machine.block_base ctx.m addr in
  let ns = node_state ctx in
  let cat = if need = State_table.Exclusive then Stats.Write else Stats.Read in
  let base () = State_table.get ns.Machine.table line in
  (* "Sufficient" requires a settled state: raising the private entry
     while a downgrade is pending would resurrect it after the downgrade
     machinery has already lowered it, leaving a stale private-exclusive
     over an invalidated node copy. *)
  let sufficient () =
    state_rank (base ()) >= state_rank need
    && (not (State_table.pending_downgrade ns.Machine.table line))
    && not (State_table.pending ns.Machine.table line)
  in
  if State_table.pending_downgrade ns.Machine.table line then begin
    stall ctx cat (fun () ->
        not (State_table.pending_downgrade ns.Machine.table line));
    ensure_line ctx line need
  end
  else
    (* Once awaited data has landed, the batch can proceed even if the
       block was immediately given away again: the batch markers keep
       the bytes in memory for the batched loads and batch_end replays
       the batched stores coherently. Insisting that the state remain
       sufficient would livelock two nodes batching the same block. *)
    let accept _e =
      (* Whether the data arrived via a reply (landed, stamped flag
         deferred by our markers) or was already present (an upgrade of
         a shared copy), the bytes are in memory now and will stay there
         until batch_end. *)
      if sufficient () && ctx.smp then
        raise_private ctx (pid ctx) block need
    in
    match Miss_table.find ns.Machine.misses ~block with
    | Some e
      when (not e.Miss_table.data_ready) && e.Miss_table.inval_after_reply ->
      (* Joining after an invalidation was acknowledged: the in-flight
         data is already stale for us; wait it out and refetch. *)
      stall ctx cat (fun () ->
          Option.is_none (Miss_table.find ns.Machine.misses ~block));
      ensure_line ctx line need
    | Some e when not e.Miss_table.data_ready ->
      stall ctx cat (fun () -> e.Miss_table.data_ready);
      accept e
    | Some _ when not (sufficient ()) ->
      (* Ack-draining entry over a re-invalidated block: wait it out. *)
      stall ctx cat (fun () ->
          Option.is_none (Miss_table.find ns.Machine.misses ~block));
      ensure_line ctx line need
    | Some _ -> if ctx.smp then raise_private ctx (pid ctx) block need
    | None ->
      if sufficient () then begin
        if ctx.smp then raise_private ctx (pid ctx) block need
      end
      else begin
        let kind =
          if need = State_table.Exclusive then
            if base () = State_table.Shared then Msg.Upgrade else Msg.Readex
          else Msg.Read
        in
        let e = issue_request ctx ~block ~kind in
        stall ctx cat (fun () -> e.Miss_table.data_ready);
        accept e
      end

let batch_begin ctx ranges =
  let layout = ctx.m.Machine.layout in
  let t = ctx.t in
  (* Collect covered lines with the strongest need over each. *)
  let needs : (int, State_table.base) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (addr, len, need) ->
      assert (len > 0);
      let first = Layout.line_of layout addr in
      let last = Layout.line_of layout (addr + len - 1) in
      for l = first to last do
        let cur =
          Option.value ~default:State_table.Invalid (Hashtbl.find_opt needs l)
        in
        if state_rank need > state_rank cur then Hashtbl.replace needs l need
      done)
    ranges;
  let lines =
    List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) needs [])
  in
  let per_line =
    if ctx.smp then t.Timing.batch_check_per_line_smp
    else t.Timing.batch_check_per_line_base
  in
  if ctx.m.Machine.cfg.Config.checks_enabled then
    charge ctx
      ((per_line * List.length lines)
      + (t.Timing.batch_check_per_range * List.length ranges));
  ctx.ps.Machine.stats.Stats.checks <-
    ctx.ps.Machine.stats.Stats.checks + List.length lines;
  let ns = node_state ctx in
  (* Mark every covered line before fetching anything, so that blocks
     invalidated while the handler waits keep their data in memory. *)
  List.iter
    (fun l ->
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt ns.Machine.batch_lines l)
      in
      Hashtbl.replace ns.Machine.batch_lines l (cur + 1))
    lines;
  let table = check_table ctx in
  let missing =
    List.filter
      (fun l ->
        state_rank (State_table.get table l)
        < state_rank (Hashtbl.find needs l))
      lines
  in
  if missing <> [] then begin
    charge ctx t.Timing.protocol_entry;
    if ctx.smp then charge ctx t.Timing.smp_lock;
    List.iter (fun l -> ensure_line ctx l (Hashtbl.find needs l)) missing
  end;
  let wpieces =
    List.concat_map
      (fun (addr, len, need) ->
        if need <> State_table.Exclusive then []
        else begin
          let pieces = ref [] in
          let pos = ref addr in
          while !pos < addr + len do
            let block = Machine.block_base ctx.m !pos in
            let bsize = Machine.block_size ctx.m block in
            let chunk = min (addr + len) (block + bsize) - !pos in
            pieces := (block, !pos - block, chunk) :: !pieces;
            pos := !pos + chunk
          done;
          !pieces
        end)
      ranges
  in
  (* Register the raw-write pieces on the node so that data replies for
     these blocks (a sibling's refetch) merge around the batch's stores,
     exactly as they merge around non-blocking-store ranges. *)
  List.iter
    (fun (block, off, len) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt ns.Machine.batch_wranges block)
      in
      Hashtbl.replace ns.Machine.batch_wranges block ((off, len) :: cur))
    wpieces;
  { b_lines = lines; b_wpieces = wpieces }

(* Replay a batched store piece through the protocol if its block may
   have lost exclusivity while the batch ran (conservatively detected
   through the node downgrade epoch): the bytes are still in memory
   (flag writes were deferred by the batch markers and data replies
   merged around the registered ranges), so pushing exactly the declared
   piece through the ordinary non-blocking store path re-serializes the
   writes with any concurrent owner's copy. *)
let replay_wpiece ctx (block, off, len) =
  let layout = ctx.m.Machine.layout in
  let ns = node_state ctx in
  let line = Layout.line_of layout (block + off) in
  (* Once the registered ranges protect the bytes from being merged
     over, holding the block exclusively at batch end implies our copy
     (including the raw batched stores) is the authoritative one; replay
     is needed only when exclusivity was not retained. *)
  let needs_replay =
    State_table.get ns.Machine.table line <> State_table.Exclusive
    || State_table.pending ns.Machine.table line
    || State_table.pending_downgrade ns.Machine.table line
  in
  if needs_replay then begin
    let at = block + off in
    let bytes = Image.snapshot ns.Machine.image ~addr:at ~len in
    store_miss ctx ~addr:at ~len (fun img ->
        Image.write_bytes img ~addr:at bytes)
  end

let unregister_wpiece ctx (block, off, len) =
  let ns = node_state ctx in
  match Hashtbl.find_opt ns.Machine.batch_wranges block with
  | None ->
    violation ctx ~block "batch end: write piece with no registered ranges"
  | Some ranges ->
    let rec remove_one = function
      | [] -> []
      | r :: rest -> if r = (off, len) then rest else r :: remove_one rest
    in
    (match remove_one ranges with
    | [] -> Hashtbl.remove ns.Machine.batch_wranges block
    | rest -> Hashtbl.replace ns.Machine.batch_wranges block rest)

let batch_end ctx token =
  let ns = node_state ctx in
  List.iter (replay_wpiece ctx) token.b_wpieces;
  List.iter (unregister_wpiece ctx) token.b_wpieces;
  List.iter
    (fun l ->
      match Hashtbl.find_opt ns.Machine.batch_lines l with
      | Some 1 -> Hashtbl.remove ns.Machine.batch_lines l
      | Some n -> Hashtbl.replace ns.Machine.batch_lines l (n - 1)
      | None ->
        violation ctx
          ~block:(Layout.addr_of_line ctx.m.Machine.layout l)
          "batch end: line count missing from the batch table")
    token.b_lines;
  (* Under SMP, a private entry raised for the batch may now overstate
     the node state (the block was downgraded mid-batch). Private state
     is maintained block-uniformly, so the re-alignment must cover every
     line of every touched block — lowering only the batch's own lines
     would leave stale Exclusive entries on the block's other lines. *)
  if ctx.smp then begin
    let layout = ctx.m.Machine.layout in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun l ->
        let block = Machine.block_base ctx.m (Layout.addr_of_line layout l) in
        if not (Hashtbl.mem seen block) then begin
          Hashtbl.replace seen block ();
          let node_st =
            State_table.get ns.Machine.table (Layout.line_of layout block)
          in
          lower_private ctx (pid ctx) block node_st
        end)
      token.b_lines
  end;
  (* Perform flag writes deferred on blocks that are now batch-free and
     still invalid (a refetch cancels the deferred stamp). *)
  let layout = ctx.m.Machine.layout in
  let ready =
    Hashtbl.fold
      (fun block () acc ->
        if block_in_active_batch ctx block then acc else block :: acc)
      ns.Machine.deferred_flags []
  in
  List.iter
    (fun block ->
      Hashtbl.remove ns.Machine.deferred_flags block;
      if
        State_table.get ns.Machine.table (Layout.line_of layout block)
        = State_table.Invalid
      then write_flag_now ctx block)
    ready

(* ---------------- Release consistency & synchronization ---------------- *)

let release_stores ctx =
  let ns = node_state ctx in
  charge ctx ctx.t.Timing.memory_barrier;
  let ids = Miss_table.outstanding_ids ns.Machine.misses in
  let writes =
    List.filter
      (fun id ->
        match Miss_table.find_id ns.Machine.misses id with
        | Some e ->
          e.Miss_table.kind <> Msg.Read
          || e.Miss_table.upgrade_after_reply
          || e.Miss_table.store_ranges <> []
        | None -> false)
      ids
  in
  stall ctx Stats.Write (fun () ->
      List.for_all
        (fun id -> Miss_table.find_id ns.Machine.misses id = None)
        writes)

let acquire_fence ctx =
  (* §3.4.4 footnote: stall at an acquire while any block on the node has
     a deferred invalid-flag write outstanding. *)
  let ns = node_state ctx in
  charge ctx ctx.t.Timing.memory_barrier;
  stall ctx Stats.Sync (fun () -> Hashtbl.length ns.Machine.deferred_flags = 0)

let lock_acquire ctx lock =
  acquire_fence ctx;
  ctx.ps.Machine.waiting_lock <- Some lock;
  with_category ctx Stats.Sync (fun () ->
      deliver ctx (Machine.lock_home ctx.m lock) (Msg.Lock_req { lock }));
  stall ctx Stats.Sync (fun () -> Hashtbl.mem ctx.ps.Machine.granted lock);
  ctx.ps.Machine.waiting_lock <- None;
  Hashtbl.remove ctx.ps.Machine.granted lock;
  obs_lock_acquired ctx ~lock

let lock_release ctx lock =
  release_stores ctx;
  obs_lock_released ctx ~lock;
  with_category ctx Stats.Sync (fun () ->
      deliver ctx (Machine.lock_home ctx.m lock) (Msg.Lock_release { lock }))

let local_barrier ctx barrier =
  let tbl = ctx.m.Machine.barrier_local.(node ctx) in
  match Hashtbl.find_opt tbl barrier with
  | Some bs -> bs
  | None ->
    let bs = { Machine.arrived = 0; generation = 0; arrived_procs = [] } in
    Hashtbl.replace tbl barrier bs;
    bs

(* SHASTA_SANITIZE >= 1: sweep the whole-machine invariants every time a
   processor leaves a barrier. The sweep charges no cycles and runs only
   between scheduling points, so simulated time is unchanged. *)
let barrier_sanitize ctx =
  if ctx.m.Machine.cfg.Config.sanitize > 0 then
    match Inspect.report ctx.m with
    | [] -> ()
    | vs -> raise (Inspect.Violation vs)

let barrier_wait ctx barrier =
  release_stores ctx;
  let hierarchical =
    ctx.m.Machine.cfg.Config.smp_sync && ctx.m.Machine.cfg.Config.clustering > 1
  in
  if hierarchical then begin
    (* 5 extension: arrivals combine in the node's shared memory; only
       the last processor of each node sends a message, and the release
       is broadcast once per node and fanned out through shared memory. *)
    let bs = local_barrier ctx barrier in
    let before = bs.Machine.generation in
    obs_barrier_arrive ctx ~barrier ~epoch:(before + 1);
    charge ctx (ctx.t.Timing.memory_barrier + ctx.t.Timing.sync_manager);
    bs.Machine.arrived <- bs.Machine.arrived + 1;
    ctx.ps.Machine.waiting_barrier <- Some barrier;
    if bs.Machine.arrived = List.length (Config.procs_of_node ctx.m.Machine.cfg (node ctx))
    then begin
      bs.Machine.arrived <- 0;
      with_category ctx Stats.Sync (fun () ->
          deliver ctx (Machine.barrier_home ctx.m barrier)
            (Msg.Barrier_arrive { barrier }))
    end;
    stall ctx Stats.Sync (fun () -> bs.Machine.generation > before);
    ctx.ps.Machine.waiting_barrier <- None;
    obs_barrier_leave ctx ~barrier ~epoch:(before + 1);
    acquire_fence ctx;
    barrier_sanitize ctx
  end
  else begin
    let seen () =
      Option.value ~default:0 (Hashtbl.find_opt ctx.ps.Machine.barrier_seen barrier)
    in
    let before = seen () in
    obs_barrier_arrive ctx ~barrier ~epoch:(before + 1);
    ctx.ps.Machine.waiting_barrier <- Some barrier;
    with_category ctx Stats.Sync (fun () ->
        deliver ctx (Machine.barrier_home ctx.m barrier) (Msg.Barrier_arrive { barrier }));
    stall ctx Stats.Sync (fun () -> seen () > before);
    ctx.ps.Machine.waiting_barrier <- None;
    obs_barrier_leave ctx ~barrier ~epoch:(before + 1);
    acquire_fence ctx;
    barrier_sanitize ctx
  end

(* ---------------- Post-run drain ---------------- *)

let drain ctx =
  ctx.ps.Machine.finished <- true;
  ctx.ps.Machine.app_finish_cycles <- Engine.now ctx.eng;
  let gap = ctx.t.Timing.stall_gap in
  while not (Machine.quiescent ctx.m) do
    poll ctx;
    Engine.advance ctx.eng (gap + Engine.idle_skip ctx.eng ~quantum:gap)
  done
