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
  access : view;
      (** the view the miss paths reuse: they never nest, so one per
          processor serves them without an allocation per miss *)
}

(* A processor handling a message or an access about one block. *)
and view = { ctx : ctx; mutable block : int }

let make_ctx m eng =
  let ps = m.Machine.procs.(Engine.pid eng) in
  ps.Machine.engine <- Some eng;
  let rec ctx =
    {
      m;
      eng;
      ps;
      t = m.Machine.cfg.Config.timing;
      smp = m.Machine.cfg.Config.variant = Config.Smp;
      access;
    }
  and access = { ctx; block = 0 } in
  ctx

let access_view ctx block =
  ctx.access.block <- block;
  ctx.access

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
(* Observer events. Each site tests [observed] before it builds its
   payload: with no observer installed that costs one load and one
   branch and allocates nothing, so the instrumented build stays within
   noise of the unhooked code, and no event ever charges cycles —
   simulated time is bit-identical whether or not an observer is
   watching. An observer without an event hook gets no events built. *)

let observed ctx =
  match ctx.m.Machine.observer with
  | None -> false
  | Some o -> Observer.wants_events o

let emit ctx payload =
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o ->
    o.Observer.on_event
      { Event.proc = pid ctx; time = Engine.now ctx.eng; payload }

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
(* Block-granular state updates on the node's shared table.            *)

let set_block_state ctx block st =
  let table = (node_state ctx).Machine.table in
  let first, n = Machine.lines_of_block ctx.m block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    State_table.set table l st
  done;
  if st <> old && observed ctx then
    emit ctx (Event.State { node = node ctx; block; from_ = old; to_ = st })

let set_block_pending ctx block v =
  let table = (node_state ctx).Machine.table in
  let first, n = Machine.lines_of_block ctx.m block in
  for l = first to first + n - 1 do
    State_table.set_pending table l v
  done;
  if observed ctx then
    emit ctx (Event.Pending { node = node ctx; block; set = v })

let set_block_pending_downgrade ctx block v =
  let table = (node_state ctx).Machine.table in
  let first, n = Machine.lines_of_block ctx.m block in
  for l = first to first + n - 1 do
    State_table.set_pending_downgrade table l v
  done;
  if observed ctx then
    emit ctx (Event.Pending_downgrade { node = node ctx; block; set = v })

(* Raise a private state table to [st] (never downgrade). *)
let raise_private ctx p block st =
  let table = ctx.m.Machine.privates.(p) in
  let first, n = Machine.lines_of_block ctx.m block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    if State_table.rank (State_table.get table l) < State_table.rank st then
      State_table.set table l st
  done;
  if State_table.rank old < State_table.rank st && observed ctx then
    emit ctx (Event.Private { target = p; block; from_ = old; to_ = st })

(* Lower a private state table to [st] (never upgrade). *)
let lower_private ctx p block st =
  let table = ctx.m.Machine.privates.(p) in
  let first, n = Machine.lines_of_block ctx.m block in
  let old = State_table.get table first in
  for l = first to first + n - 1 do
    if State_table.rank (State_table.get table l) > State_table.rank st then
      State_table.set table l st
  done;
  if State_table.rank old > State_table.rank st && observed ctx then
    emit ctx (Event.Private { target = p; block; from_ = old; to_ = st })

let private_state ctx p block =
  let table = ctx.m.Machine.privates.(p) in
  State_table.get table (Layout.line_of ctx.m.Machine.layout block)

(* ------------------------------------------------------------------ *)
(* Invalid-flag stamping, with batch deferral (§3.4.4).                *)

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
  Image.write_invalid_flag ns.Machine.image ~skip ~addr:block ~len:size

let stamp_invalid ctx block =
  let ns = node_state ctx in
  if ctx.m.Machine.cfg.Config.fault = Some Config.Skip_flag_stamp then
    (* Test-only fault: leave stale application data behind where the
       invalid-flag pattern belongs. *)
    ()
  else if Machine.block_in_batch ctx.m (node_state ctx) block then
    Hashtbl.replace ns.Machine.deferred_flags block ()
  else write_flag_now ctx block

(* ------------------------------------------------------------------ *)
(* Message handling. The per-block coherence handlers are
   [Coherence]'s, run here over this machine; synchronization messages
   are handled below. [deliver] routes to the network unless the
   destination is this very processor, in which case the handler runs
   inline (a processor never sends itself a message; this is the
   requester-is-home fast path of Base-Shasta). *)

let transmit ctx dst msg =
  if not (Shasta_net.Topology.same_node ctx.m.Machine.topo (pid ctx) dst) then
    charge ctx ctx.t.Timing.remote_send;
  let now = Engine.now ctx.eng in
  Network.send ctx.m.Machine.net ~src:(pid ctx) ~dst ~now
    ~size:(Msg.size_bytes msg) msg;
  Engine.sent ctx.eng ~dst;
  match ctx.m.Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_send ~src:(pid ctx) ~dst ~now msg

let under_store_limit ctx =
  ctx.ps.Machine.outstanding_stores < ctx.t.Timing.max_outstanding_stores

module Handlers = Coherence.Make (struct
  type t = view

  let pid v = pid v.ctx
  let block v = v.block
  let home v = Machine.home_of_block v.ctx.m v.block
  let node_of v q = Machine.node_of v.ctx.m q
  let node_procs v = Config.procs_of_node v.ctx.m.Machine.cfg (node v.ctx)
  let fault v = v.ctx.m.Machine.cfg.Config.fault
  let table v = (node_state v.ctx).Machine.table
  let line v = Layout.line_of v.ctx.m.Machine.layout v.block
  let base v = State_table.get (table v) (line v)
  let set_base v st = set_block_state v.ctx v.block st
  let pending v = State_table.pending (table v) (line v)
  let set_pending v b = set_block_pending v.ctx v.block b
  let pending_downgrade v = State_table.pending_downgrade (table v) (line v)
  let set_pending_downgrade v b = set_block_pending_downgrade v.ctx v.block b
  let check_state v = State_table.get (check_table v.ctx) (line v)
  let private_state v q = private_state v.ctx q v.block
  let raise_private v q st = raise_private v.ctx q v.block st
  let lower_private v q st = lower_private v.ctx q v.block st
  let stamp v = stamp_invalid v.ctx v.block

  let snapshot v =
    Image.snapshot (node_image v.ctx) ~addr:v.block
      ~len:(Machine.block_size v.ctx.m v.block)

  (* Reply data merges around the entry's non-blocking stores and the
     raw writes of active batches; a refetch supersedes any flag write
     deferred by a batch. *)
  let install v e data =
    let ns = node_state v.ctx in
    Hashtbl.remove ns.Machine.deferred_flags v.block;
    let batch_skip =
      Option.value ~default:[]
        (Hashtbl.find_opt ns.Machine.batch_wranges v.block)
    in
    Image.write_bytes ns.Machine.image ~addr:v.block
      ~skip:(e.Miss_table.store_ranges @ batch_skip)
      data

  type write = Image.t -> unit

  let write v w = w (node_image v.ctx)

  (* The entry lives in the home processor's directory; with the
     share_directory extension the handler may be running on a
     colocated processor, so resolve the home explicitly. *)
  let dir v =
    let home = home v in
    Directory.entry v.ctx.m.Machine.dirs.(home) ~block:v.block ~home

  let miss v = Miss_table.find (node_state v.ctx).Machine.misses ~block:v.block

  let open_miss v kind =
    let ctx = v.ctx in
    let e =
      Miss_table.add (node_state ctx).Machine.misses ~block:v.block
        ~requester:(pid v) ~kind ~now:(Engine.now ctx.eng)
    in
    if observed ctx then emit ctx (Event.Miss_start { block = v.block; kind });
    e

  let retire v e =
    let ctx = v.ctx in
    if observed ctx then
      emit ctx
        (Event.Miss_end
           {
             block = v.block;
             kind = e.Miss_table.kind;
             start = e.Miss_table.start_cycles;
           });
    Miss_table.remove (node_state ctx).Machine.misses e;
    Bitset.iter
      (fun p ->
        let q = ctx.m.Machine.procs.(p) in
        q.Machine.outstanding_stores <- q.Machine.outstanding_stores - 1)
      e.Miss_table.store_procs

  let store_slot_free v = under_store_limit v.ctx

  let record_store v e ~off ~len =
    let ps = v.ctx.ps in
    if not (Bitset.mem ps.Machine.pid e.Miss_table.store_procs) then
      ps.Machine.outstanding_stores <- ps.Machine.outstanding_stores + 1;
    Miss_table.add_store_range e ~off ~len ~proc:ps.Machine.pid

  let share_directory v = v.ctx.m.Machine.cfg.Config.share_directory

  let downgrade v =
    Downgrade.find (node_state v.ctx).Machine.downgrades ~block:v.block

  let open_downgrade v ~target ~deferred ~remaining =
    ignore
      (Downgrade.add (node_state v.ctx).Machine.downgrades ~block:v.block
         ~target ~deferred ~remaining)

  let close_downgrade v dg =
    Downgrade.remove (node_state v.ctx).Machine.downgrades dg

  let transmit v dst msg = transmit v.ctx dst msg

  let charge v cost =
    let ctx = v.ctx in
    let t = ctx.t in
    match cost with
    | Coherence.Handler -> charge ctx t.Timing.handler_base
    | Coherence.Node_lock -> if ctx.smp then charge ctx t.Timing.smp_lock
    | Coherence.Home -> charge ctx t.Timing.handler_home
    | Coherence.Downgrade_start -> charge ctx t.Timing.downgrade_initiate
    | Coherence.Downgrade_send -> charge ctx t.Timing.downgrade_send
    | Coherence.Downgrade_handler -> charge ctx t.Timing.handler_downgrade
    | Coherence.Data_apply -> charge ctx t.Timing.handler_data_apply
    | Coherence.Miss_setup -> charge ctx t.Timing.miss_setup
    | Coherence.Protocol_entry -> charge ctx t.Timing.protocol_entry
    | Coherence.Private_upgrade ->
      let saved = ctx.ps.Machine.category in
      ctx.ps.Machine.category <- Stats.Other;
      charge ctx t.Timing.private_upgrade;
      ctx.ps.Machine.category <- saved

  let note v note =
    let ctx = v.ctx and block = v.block in
    let stats = ctx.ps.Machine.stats in
    match note with
    | Coherence.Downgrades_sent n ->
      Histogram.add stats.Stats.downgrade_events n;
      stats.Stats.downgrades_sent <- stats.Stats.downgrades_sent + n
    | Coherence.Miss_served { kind; three_hop; start } ->
      Stats.record_miss stats { Stats.kind; three_hop };
      if kind = Msg.Read then
        Stats.record_read_latency stats (Engine.now ctx.eng - start)
    | Coherence.False_miss ->
      stats.Stats.false_misses <- stats.Stats.false_misses + 1
    | Coherence.Private_upgrade ->
      stats.Stats.private_upgrades <- stats.Stats.private_upgrades + 1
    | _ when not (observed ctx) -> ()
    | Coherence.Downgrade_queued (src, msg) ->
      emit ctx (Event.Downgrade_queued { block; src; kind = Msg.tag msg })
    | Coherence.Downgrade_ack -> emit ctx (Event.Downgrade_ack { block })
    | Coherence.Downgrade_done -> emit ctx (Event.Downgrade_done { block })
    | Coherence.Downgrade_replay (src, msg) ->
      emit ctx (Event.Downgrade_replay { block; src; kind = Msg.tag msg })

  let mark _ _ = ()
  let violation v detail = violation v.ctx ~block:v.block detail
end)

let rec deliver ctx dst msg =
  if dst = pid ctx then handle_message ctx ~src:(pid ctx) msg
  else transmit ctx dst msg

and handle_message ctx ~src msg =
  charge ctx ctx.t.Timing.handler_base;
  match msg with
  | Msg.Req { block; _ }
  | Msg.Fwd { block; _ }
  | Msg.Data_reply { block; _ }
  | Msg.Upgrade_reply { block; _ }
  | Msg.Invalidate { block; _ }
  | Msg.Inval_ack { block }
  | Msg.Sharing_wb { block; _ }
  | Msg.Own_ack { block }
  | Msg.Downgrade { block; _ } ->
    Handlers.handle { ctx; block } ~src msg
  | Msg.Lock_req { lock } -> handle_lock_req ctx ~src ~lock
  | Msg.Lock_grant { lock } -> Hashtbl.replace ctx.ps.Machine.granted lock ()
  | Msg.Lock_release { lock } -> handle_lock_release ctx ~lock
  | Msg.Barrier_arrive { barrier } -> handle_barrier_arrive ctx ~src ~barrier
  | Msg.Barrier_release { barrier; generation } ->
    if Machine.hierarchical_barriers ctx.m then
      (* Publish the release through the node's shared memory. *)
      (Machine.local_barrier ctx.m ~node:(node ctx) barrier).Machine.generation
      <- generation
    else Hashtbl.replace ctx.ps.Machine.barrier_seen barrier generation

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
  let holder = Machine.hand_off_lock (Hashtbl.find ctx.m.Machine.locks lock) in
  if holder >= 0 then deliver ctx holder (Msg.Lock_grant { lock })

(* The arrival pids are recorded so that recovery can subtract arrivals
   from processors that died mid-episode. *)
and handle_barrier_arrive ctx ~src ~barrier =
  charge ctx ctx.t.Timing.sync_manager;
  let bs = Hashtbl.find ctx.m.Machine.barriers barrier in
  bs.Machine.arrived <- bs.Machine.arrived + 1;
  bs.Machine.arrived_procs <- src :: bs.Machine.arrived_procs;
  List.iter
    (fun (dst, msg) -> deliver ctx dst msg)
    (Machine.release_barrier ctx.m bs ~barrier)

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
      Engine.touch ctx.eng;
      (match ctx.m.Machine.observer with
      | None -> ()
      | Some o -> o.Observer.on_recv ~src ~dst:(pid ctx) ~now msg);
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
   below the visibility bound are provably no-ops (frozen peers, an
   empty probe, a false predicate), so they are collapsed into a single
   advance ([Engine.idle_skip]) — the cycle charge and every observable
   re-check point are identical to stepping. Predicates read only node
   state, which a waiter changes only by handling a message or after
   leaving this loop: both [Engine.touch] the node, so a parked sibling
   counts as frozen exactly while its predicate cannot have changed.
   [scope] is [Engine.Self] only for a predicate that reads nothing but
   state that only this processor's own message handlers write: a lock
   grant, a flat barrier release, or the [data_ready] of a miss entry
   it opened (see [await_data]). Such a waiter is resumed only once a
   message for it is due: the scheduler queues it by its earliest
   arrival, and with nothing queued it sleeps until one is sent. *)
let stall ?(scope = Engine.Group) ctx cat pred =
  let gap = ctx.t.Timing.stall_gap in
  with_category ctx cat (fun () ->
      while not (pred ()) do
        poll ctx;
        if not (pred ()) then
          charge_yield ctx
            (gap + Engine.idle_skip ~scope ctx.eng ~quantum:gap)
      done);
  Engine.touch ctx.eng

(* ------------------------------------------------------------------ *)
(* Miss paths called from the Dsm layer: Coherence decides what the
   access waits for; the waits and retries are here.                   *)

let await_retire ctx cat block =
  let ns = node_state ctx in
  stall ctx cat (fun () ->
      Option.is_none (Miss_table.find ns.Machine.misses ~block))

(* Wait for an entry's data. Replies go to the entry's requester, and
   only its reply handlers ([Coherence.handle_data_reply] and
   [handle_upgrade_reply]) write [data_ready], so the requester's wait
   is self-woken. A sibling merged into the entry waits node-scoped: the
   requester's handling changes what it reads. *)
let await_data ctx cat e =
  let scope =
    if e.Miss_table.requester = pid ctx then Engine.Self else Engine.Group
  in
  stall ~scope ctx cat (fun () -> e.Miss_table.data_ready)

let load_miss ctx ~addr =
  let block = Machine.block_base ctx.m addr in
  match Handlers.load_miss (access_view ctx block) with
  | `Done -> `Valid
  | `Data e ->
    await_data ctx Stats.Read e;
    `Retry
  | `Retire ->
    await_retire ctx Stats.Read block;
    `Retry

(* Any stall can complete or remove a miss entry, so the whole decision
   is retried from scratch after every stall: bookkeeping mutations
   happen only on paths with no intervening scheduling point. *)
let rec store_miss ctx ~addr ~len write =
  let block = Machine.block_base ctx.m addr in
  match
    Handlers.store_miss (access_view ctx block) ~off:(addr - block) ~len write
  with
  | `Done -> ()
  | `Retire ->
    await_retire ctx Stats.Write block;
    store_miss ctx ~addr ~len write
  | `Slot ->
    stall ctx Stats.Write (fun () -> under_store_limit ctx);
    store_miss ctx ~addr ~len write

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
    State_table.rank (base ()) >= State_table.rank need
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
      await_retire ctx cat block;
      ensure_line ctx line need
    | Some e when not e.Miss_table.data_ready ->
      await_data ctx cat e;
      accept e
    | Some _ when not (sufficient ()) ->
      (* Ack-draining entry over a re-invalidated block: wait it out. *)
      await_retire ctx cat block;
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
        let e = Handlers.fetch (access_view ctx block) kind in
        await_data ctx cat e;
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
        if State_table.rank need > State_table.rank cur then
          Hashtbl.replace needs l need
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
        State_table.rank (State_table.get table l)
        < State_table.rank (Hashtbl.find needs l))
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
   have lost exclusivity while the batch ran: the bytes are still in memory
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
        if Machine.block_in_batch ctx.m ns block then acc else block :: acc)
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
  stall ~scope:Engine.Self ctx Stats.Sync (fun () ->
      Hashtbl.mem ctx.ps.Machine.granted lock);
  ctx.ps.Machine.waiting_lock <- None;
  Hashtbl.remove ctx.ps.Machine.granted lock;
  if observed ctx then emit ctx (Event.Lock_acquired { lock })

let lock_release ctx lock =
  release_stores ctx;
  if observed ctx then emit ctx (Event.Lock_released { lock });
  with_category ctx Stats.Sync (fun () ->
      deliver ctx (Machine.lock_home ctx.m lock) (Msg.Lock_release { lock }))

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
  if Machine.hierarchical_barriers ctx.m then begin
    (* 5 extension: arrivals combine in the node's shared memory; only
       the last processor of each node sends a message, and the release
       is broadcast once per node and fanned out through shared memory. *)
    let bs = Machine.local_barrier ctx.m ~node:(node ctx) barrier in
    let before = bs.Machine.generation in
    if observed ctx then
      emit ctx (Event.Barrier_arrive { barrier; epoch = before + 1 });
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
    if observed ctx then
      emit ctx (Event.Barrier_leave { barrier; epoch = before + 1 });
    acquire_fence ctx;
    barrier_sanitize ctx
  end
  else begin
    let seen () =
      Option.value ~default:0 (Hashtbl.find_opt ctx.ps.Machine.barrier_seen barrier)
    in
    let before = seen () in
    if observed ctx then
      emit ctx (Event.Barrier_arrive { barrier; epoch = before + 1 });
    ctx.ps.Machine.waiting_barrier <- Some barrier;
    with_category ctx Stats.Sync (fun () ->
        deliver ctx (Machine.barrier_home ctx.m barrier) (Msg.Barrier_arrive { barrier }));
    stall ~scope:Engine.Self ctx Stats.Sync (fun () -> seen () > before);
    ctx.ps.Machine.waiting_barrier <- None;
    if observed ctx then
      emit ctx (Event.Barrier_leave { barrier; epoch = before + 1 });
    acquire_fence ctx;
    barrier_sanitize ctx
  end

(* ---------------- Post-run drain ---------------- *)

(* Leaving the drain ends the processor, which changes nothing another
   processor reads, so the drainer bounds nobody. But [Machine.quiescent]
   reads every processor's state and no message marks its turn, so the
   wait is [Engine.Global], not [Self]: it must not sleep until a
   message comes. *)
let drain ctx =
  ctx.ps.Machine.finished <- true;
  ctx.ps.Machine.app_finish_cycles <- Engine.now ctx.eng;
  let gap = ctx.t.Timing.stall_gap in
  while not (Machine.quiescent ctx.m) do
    poll ctx;
    Engine.advance ctx.eng
      (gap + Engine.idle_skip ~scope:Engine.Global ctx.eng ~quantum:gap)
  done
