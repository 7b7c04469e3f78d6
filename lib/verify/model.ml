(* Abstract model of the per-block coherence protocol.

   The message handlers, the miss paths and crash recovery's per-block
   decisions are not written here: [Coherence.Make] and
   [Coherence.Recovery] are the code the simulator runs, instantiated
   below over an abstract state specialized to the litmus geometry (2
   coherence nodes x 2 processors, SMP variant, one block,
   share_directory off). Data content is abstracted to one bit per node
   copy — [stamped], true iff the copy holds the invalid-flag pattern,
   which is exactly what the inline access-control check reads. The
   substrate drops cycle charges, statistics and observer notes, and
   emits instead the conformance labels and branch marks that
   exploration collects.

   What stays here is model-specific: the abstract state and its copy,
   the two inline checks, the fail-stop half of a crash (scrubbing the
   dead node and its in-flight messages, re-homing), the delivery rule,
   the invariants and the branch lists.

   Exhaustive exploration of this model is what makes it useful: the
   simulator's litmus explorer judges only delay-bounded schedules it
   actually executes, while reachability over this relation covers every
   interleaving of message deliveries and processor accesses under a
   channel bound. *)

module Config = Shasta_core.Config
module Msg = Shasta_core.Msg
module Directory = Shasta_core.Directory
module Downgrade = Shasta_core.Downgrade
module Miss_table = Shasta_core.Miss_table
module St = Shasta_mem.State_table
module Bitset = Shasta_util.Bitset

let nprocs = 4
let nnodes = 2
let node_of p = p / 2
let procs_of_node n = [ 2 * n; (2 * n) + 1 ]

(* The one block every message concerns, and the payload of every data
   reply: data content lives in the [stamped] bit. *)
let block = 0
let payload = Bytes.empty
let rank = St.rank

let base_name = function
  | St.Invalid -> "Invalid"
  | St.Shared -> "Shared"
  | St.Exclusive -> "Exclusive"

(* The coherence subset of the Msg vocabulary (tags 0-12); the sync
   tags 13-17 (locks, barriers) do not touch per-block state and are
   outside the model. *)
let coherence_tags = 13
let tag_name t = Msg.tag_names.(t)

(* ------------------------------------------------------------------ *)
(* Abstract state.                                                     *)

type nodest = {
  mutable nbase : St.base;
  mutable pending : bool;
  mutable pdg : bool;  (** pending_downgrade *)
  mutable stamped : bool;  (** copy holds the invalid-flag pattern *)
  mutable miss : Miss_table.entry option;
  mutable down : Downgrade.entry option;
}

(* In-flight messages: one global queue in send order. The real network
   delivers at send-time + transfer(class, size) and the engine runs
   handlers in arrival order, so delivery order is the send order
   except where a cheaper transfer can close an arbitrary send gap:
   ranking messages by minimum latency — intra-node control <
   intra-node data < remote control < remote data (only [Data_reply]
   carries the block; the rank order holds for line sizes up to 256
   bytes under the default link) — a later send can only overtake an
   earlier one of strictly higher rank, and never on the same
   (src, dst) pair (the network forces per-pair FIFO explicitly).
   Fully independent channels would over-approximate into reorderings
   the simulator cannot exhibit (e.g. a stale invalidate overtaking a
   later ownership grant) whose races are real unordered-network
   hazards but false alarms against this implementation. *)
type state = {
  dir : Directory.entry;
  nodes : nodest array;  (** length 2 *)
  priv : St.base array;  (** length 4 *)
  mutable net : (int * int * Msg.t) list;  (** (src, dst, msg), send order *)
  mutable s_home : int;  (** current home pid; moves if the home node dies *)
  mutable s_dead : int;  (** node-index bitset of crashed nodes *)
}

let copy_entry e = { e with Miss_table.kind = e.Miss_table.kind }
let copy_down d = { d with Downgrade.remaining = d.Downgrade.remaining }

let copy_node n =
  {
    n with
    miss = Option.map copy_entry n.miss;
    down = Option.map copy_down n.down;
  }

let copy_state s =
  {
    dir = { s.dir with Directory.owner = s.dir.Directory.owner };
    nodes = Array.map copy_node s.nodes;
    priv = Array.copy s.priv;
    net = s.net;
    s_home = s.s_home;
    s_dead = s.s_dead;
  }

let initial ~home =
  {
    dir =
      {
        Directory.owner = home;
        sharers = Bitset.empty;
        busy = false;
        queue = [];
      };
    nodes =
      Array.init nnodes (fun n ->
          {
            nbase = (if n = node_of home then St.Exclusive else St.Invalid);
            pending = false;
            pdg = false;
            stamped = n <> node_of home;
            miss = None;
            down = None;
          });
    priv =
      Array.init nprocs (fun p ->
          if p = home then St.Exclusive else St.Invalid);
    net = [];
    s_home = home;
    s_dead = 0;
  }

(* ------------------------------------------------------------------ *)
(* Conformance labels: the schedule-independent projection of the
   protocol's event stream. A real run's events project into this space
   (Conform.observer); exhaustive exploration emits the complete label
   set of the model, and conformance means every projected real event
   is a member. Fields are node-relative booleans (home node or not)
   rather than pids so that the labels carry over to any 2-node config
   regardless of which processor hosts the block. *)

type label =
  | L_state of { at_home : bool; from_ : int; to_ : int }
  | L_private of { at_home : bool; self : bool; from_ : int; to_ : int }
  | L_pending of { at_home : bool; set : bool }
  | L_pdg of { at_home : bool; set : bool }
  | L_send of { tg : int; src_home : bool; dst_home : bool; same_node : bool }

let describe_label = function
  | L_state { at_home; from_; to_ } ->
    Printf.sprintf "state[%s] %d->%d" (if at_home then "home" else "remote") from_ to_
  | L_private { at_home; self; from_; to_ } ->
    Printf.sprintf "private[%s,%s] %d->%d"
      (if at_home then "home" else "remote")
      (if self then "self" else "peer")
      from_ to_
  | L_pending { at_home; set } ->
    Printf.sprintf "pending[%s] %b" (if at_home then "home" else "remote") set
  | L_pdg { at_home; set } ->
    Printf.sprintf "pdg[%s] %b" (if at_home then "home" else "remote") set
  | L_send { tg; src_home; dst_home; same_node } ->
    Printf.sprintf "send[%s] %s->%s%s" (tag_name tg)
      (if src_home then "home" else "remote")
      (if dst_home then "home" else "remote")
      (if same_node then " intra" else "")

(* ------------------------------------------------------------------ *)
(* Transition context.                                                 *)

exception Model_violation of string

type t = {
  home : int;  (** initial home (the current home lives in [st.s_home]) *)
  bound : int;  (** per-(src,dst) channel bound *)
  fault : Config.fault option;
  crashes : bool;  (** enable the node-crash transition *)
  mutable on_label : label -> unit;
  mutable on_branch : string -> unit;
  mutable overflow : bool;  (** a send exceeded [bound] this step *)
  mutable st : state;
}

let create ?(home = 2) ?(bound = 2) ?fault ?(crashes = false) () =
  {
    home;
    bound;
    fault;
    crashes;
    on_label = ignore;
    on_branch = ignore;
    overflow = false;
    st = initial ~home;
  }

let home t = t.st.s_home
let nd t p = t.st.nodes.(node_of p)
let violation msg = raise (Model_violation msg)
let hit t b = t.on_branch b
let emit t l = t.on_label l
let at_home t p = node_of p = node_of (home t)

(* Minimum-latency rank of a message on a (src, dst) pair: a later
   send can only overtake an earlier in-flight message of strictly
   higher rank (and never one on its own pair). *)
let rank_of src dst m =
  let cls = if node_of src = node_of dst then 0 else 2 in
  let weight = match m with Msg.Data_reply _ -> 1 | _ -> 0 in
  cls + weight

(* ------------------------------------------------------------------ *)
(* The handlers' substrate: processor [p]'s view of the block.         *)

type view = { m : t; p : int }

module Substrate = struct
  type nonrec t = view

  let node_procs v = procs_of_node (node_of v.p)
  let fault v = v.m.fault
  let base v = (nd v.m v.p).nbase

  let set_base v b =
    let n = nd v.m v.p in
    if b <> n.nbase then
      emit v.m
        (L_state
           { at_home = at_home v.m v.p; from_ = rank n.nbase; to_ = rank b });
    n.nbase <- b

  let pending v = (nd v.m v.p).pending

  let set_pending v b =
    (nd v.m v.p).pending <- b;
    emit v.m (L_pending { at_home = at_home v.m v.p; set = b })

  let pending_downgrade v = (nd v.m v.p).pdg

  let set_pending_downgrade v b =
    (nd v.m v.p).pdg <- b;
    emit v.m (L_pdg { at_home = at_home v.m v.p; set = b })

  let check_state v = v.m.st.priv.(v.p)
  let private_state v q = v.m.st.priv.(q)

  let set_private v q b =
    let old = v.m.st.priv.(q) in
    v.m.st.priv.(q) <- b;
    emit v.m
      (L_private
         {
           at_home = at_home v.m q;
           self = v.p = q;
           from_ = rank old;
           to_ = rank b;
         })

  let raise_private v q b =
    if rank v.m.st.priv.(q) < rank b then set_private v q b

  let lower_private v q b =
    if rank v.m.st.priv.(q) > rank b then set_private v q b

  let stamp v =
    if v.m.fault <> Some Config.Skip_flag_stamp then
      (nd v.m v.p).stamped <- true

  let snapshot _ = payload
  let install v _ _ = (nd v.m v.p).stamped <- false
  let restore v _ = (nd v.m v.p).stamped <- false

  (* A store writes the one checked word. *)
  type write = unit

  let write v () = (nd v.m v.p).stamped <- false
  (* The model routes every directory message to the current home. *)
  let dir v =
    if v.p <> home v.m then violation "directory entry read off-home";
    v.m.st.dir
  let miss v = (nd v.m v.p).miss

  (* An entry records its requester and kind; the model does not track
     the entry's identity, start time or merged stores. *)
  let open_miss v kind =
    let e =
      {
        Miss_table.id = 0;
        block;
        requester = v.p;
        start_cycles = 0;
        kind;
        data_ready = false;
        acks_expected = -1;
        acks_received = 0;
        store_ranges = [];
        store_procs = Bitset.empty;
        upgrade_after_reply = false;
        inval_after_reply = false;
        queued_fwds = [];
      }
    in
    (nd v.m v.p).miss <- Some e;
    e

  let retire v _ = (nd v.m v.p).miss <- None

  (* Merged stores are not tracked, so a store slot is always free. *)
  let store_slot_free _ = true
  let record_store _ _ ~off:_ ~len:_ = ()
  let share_directory _ = false
  let downgrade v = (nd v.m v.p).down

  let open_downgrade v ~target ~deferred ~remaining =
    (nd v.m v.p).down <-
      Some { Downgrade.block; target; deferred; remaining; queued = [] }

  let close_downgrade v _ = (nd v.m v.p).down <- None

  (* Append to the global send-ordered queue. A send pushing one
     (src, dst) pair past the bound marks the step for pruning by the
     explorer. *)
  let transmit v dst msg =
    let t = v.m in
    emit t
      (L_send
         {
           tg = Msg.tag msg;
           src_home = at_home t v.p;
           dst_home = at_home t dst;
           same_node = node_of v.p = node_of dst;
         });
    t.st.net <- t.st.net @ [ (v.p, dst, msg) ];
    let pair_depth =
      List.fold_left
        (fun n (s, d, _) -> if s = v.p && d = dst then n + 1 else n)
        0 t.st.net
    in
    if pair_depth > t.bound then t.overflow <- true

  let charge _ _ = ()
  let note _ _ = ()
  let mark v b = hit v.m b
  let violation _ detail = violation detail

  (* Last, since they shadow the model's own names. *)
  let pid v = v.p
  let block _ = block
  let home v = home v.m
  let node_of _ q = node_of q
end

module Handlers = Shasta_core.Coherence.Make (Substrate)

(* ---------------- processor accesses ---------------- *)

(* The two inline checks are the model's own; everything after a failed
   check is Coherence's [load_miss] / [store_miss], as in the simulator.
   A waiting access has no effect here: the explorer re-enables it. *)

(* Checked load: the inline check reads the copy's content, and only a
   flagged word enters the protocol. An Invalid copy whose content is
   NOT flagged (possible only transiently around merged non-blocking
   stores, or under Skip_flag_stamp) is read as data without any
   protocol action -- which is exactly how that fault manifests in the
   real system. *)
let do_load t p =
  if not (nd t p).stamped then hit t "load.hit"
  else ignore (Handlers.load_miss { m = t; p })

(* Checked store: private Exclusive writes through. *)
let do_store t p =
  if rank t.st.priv.(p) = 2 then begin
    hit t "store.hit";
    (nd t p).stamped <- false
  end
  else ignore (Handlers.store_miss { m = t; p } ~off:0 ~len:8 ())

(* ------------------------------------------------------------------ *)
(* Node crash and recovery. The per-block decisions are Coherence's
   [Recovery], the code Recover.rebuild runs; what is written here is the
   fail-stop over the abstract state. After one crash exactly one node
   survives, so re-homed blocks and rebuilt directories always land on
   it, and a second crash is never enabled (the last live node may not
   die). The transition is atomic, as the engine runs the recovery
   callback between scheduling points. Recovery here has checkpoint
   data: a block whose every copy died is restored (content is one
   abstract bit either way), so sharer-pull recovery's typed Data_loss
   is left to the concrete crash tests. *)

module Recovery = Shasta_core.Coherence.Recovery (Substrate)

let do_crash t n =
  hit t "crash.kill";
  let st = t.st in
  let dead p = node_of p = n in
  let view p = { m = t; p } in
  let live = [ view (2 * (1 - n)) ] in
  let affected =
    Recovery.affected ~dead ~live ~msgs:st.net ~dir:(Some st.dir)
      (view st.s_home)
  in
  (* Fail-stop: in-flight messages with a dead endpoint vanish, and the
     node no longer exists: Invalid, flag-stamped, no transients. *)
  st.net <- List.filter (fun (s, d, _) -> not (dead s || dead d)) st.net;
  st.s_dead <- st.s_dead lor (1 lsl n);
  st.nodes.(n) <-
    {
      nbase = St.Invalid;
      pending = false;
      pdg = false;
      stamped = true;
      miss = None;
      down = None;
    };
  List.iter (fun p -> st.priv.(p) <- St.Invalid) (procs_of_node n);
  (* A dead-homed block re-homes to the surviving node. *)
  if dead st.s_home then begin
    hit t "crash.rehome";
    st.s_home <- 2 * (1 - n)
  end;
  if not affected then hit t "crash.unaffected"
  else begin
    let cancelled, kept =
      List.partition (fun (_, _, m) -> Recovery.cancels m) st.net
    in
    st.net <- kept;
    if cancelled <> [] then hit t "crash.cancel";
    List.iter (fun (s, _, m) -> Recovery.unsend (view s) m) cancelled;
    match
      Recovery.rebuild ~live ~at:view
        ~data:(fun () -> Some payload)
        (view st.s_home)
    with
    | `Rebuilt -> ()
    | `Lost -> violation "recovery with checkpoint data lost the block"
  end

(* ------------------------------------------------------------------ *)
(* Actions and stepping.                                               *)

type action =
  | Load of int
  | Store of int
  | Deliver of { src : int; dst : int }
  | Crash of int  (** node index: fail-stop the node, then recover *)

(* Delivery rule derived from arrival-order handling with per-class
   latencies (see the [state] comment): an in-flight message is
   deliverable iff every earlier in-flight message has strictly higher
   minimum-latency rank and lives on a different (src, dst) pair.
   Scanning in send order, that is: rank strictly below the running
   minimum, pair not yet seen. *)
let deliverable st =
  let acc = ref [] in
  let minrank = ref max_int in
  let seen = ref [] in
  List.iter
    (fun (src, dst, m) ->
      let r = rank_of src dst m in
      if r < !minrank && not (List.mem (src, dst) !seen) then
        acc := (src, dst) :: !acc;
      if r < !minrank then minrank := r;
      seen := (src, dst) :: !seen)
    st.net;
  List.rev !acc

let enabled_actions ?(crashes = false) st =
  let acc = ref [] in
  (* At most one crash per run, and the last live node may not die. *)
  if crashes && st.s_dead = 0 then
    for n = nnodes - 1 downto 0 do
      acc := Crash n :: !acc
    done;
  List.iter
    (fun (src, dst) -> acc := Deliver { src; dst } :: !acc)
    (List.rev (deliverable st));
  for p = nprocs - 1 downto 0 do
    if st.s_dead land (1 lsl node_of p) = 0 then
      acc := Load p :: Store p :: !acc
  done;
  !acc

(* Describe [action] against [st] (before executing it), for
   counterexample traces — computed up front so a violating step still
   has its description. *)
let describe_action st = function
  | Load p -> Printf.sprintf "p%d: load" p
  | Store p -> Printf.sprintf "p%d: store" p
  | Deliver { src; dst } -> (
    match List.find_opt (fun (s, d, _) -> s = src && d = dst) st.net with
    | Some (_, _, m) ->
      Printf.sprintf "deliver %s p%d->p%d" (Msg.describe m) src dst
    | None -> Printf.sprintf "deliver <empty> p%d->p%d" src dst)
  | Crash n -> Printf.sprintf "crash node %d" n

(* Execute [action] against [t.st], mutating it in place. Raises
   [Model_violation] when a handler reaches one of the protocol's
   impossible-configuration checks; sets [t.overflow] when a send
   exceeded the channel bound (the explorer prunes the result). *)
let step t action =
  t.overflow <- false;
  match action with
  | Load p -> do_load t p
  | Store p -> do_store t p
  | Deliver { src; dst } -> (
    (* Remove the oldest in-flight (src, dst) entry from the queue. *)
    let rec take = function
      | [] -> violation "deliver from an empty channel"
      | ((s, d, m) as e) :: rest ->
        if s = src && d = dst then (m, rest)
        else
          let m', rest' = take rest in
          (m', e :: rest')
    in
    let m, rest = take t.st.net in
    t.st.net <- rest;
    Handlers.handle { m = t; p = dst } ~src m)
  | Crash n ->
    if not t.crashes then violation "crash action on a crash-free model";
    if t.st.s_dead <> 0 then violation "second crash (last live node)";
    do_crash t n

(* ------------------------------------------------------------------ *)
(* Invariants: the Inspect.report sweep over the abstract state. A
   block with protocol activity in flight (mirrored by its table
   entries and bits -- every in-flight coherence message implies such a
   marker) may break the settled-state invariants transiently. *)

let transient st =
  Array.exists
    (fun n -> n.miss <> None || n.down <> None || n.pending || n.pdg)
    st.nodes
  || st.dir.Directory.busy || st.dir.Directory.queue <> []

let check_invariants st =
  let bad = ref [] in
  let push what = bad := what :: !bad in
  let tr = transient st in
  let exclusive = ref 0 and valid = ref 0 in
  Array.iteri
    (fun i n ->
      (match n.nbase with
      | St.Exclusive ->
        incr exclusive;
        incr valid
      | St.Shared -> incr valid
      | St.Invalid -> ());
      if n.pending && n.miss = None then
        push (Printf.sprintf "node %d: pending with no outstanding miss" i);
      (match (n.pdg, n.down) with
      | true, None ->
        push (Printf.sprintf "node %d: pending-downgrade with no downgrade entry" i)
      | false, Some _ ->
        push
          (Printf.sprintf "node %d: downgrade entry without pending-downgrade bit" i)
      | _ -> ());
      if (not tr) && n.nbase = St.Invalid && not n.stamped then
        push (Printf.sprintf "node %d: invalid without flag pattern" i))
    st.nodes;
  if !exclusive > 1 then push (Printf.sprintf "%d exclusive nodes" !exclusive);
  if (not tr) && !exclusive = 1 && !valid > 1 then
    push "exclusive node coexists with sharers";
  if (not tr) && !valid = 0 then push "no valid copy anywhere";
  Array.iteri
    (fun p pv ->
      if rank pv > rank st.nodes.(node_of p).nbase then
        push
          (Printf.sprintf "proc %d: private %s overstates node state %s" p
             (base_name pv)
             (base_name st.nodes.(node_of p).nbase)))
    st.priv;
  (* The network drops a dead processor's traffic, so a message to or
     from one strands whoever waits for its answer. *)
  let dead p = st.s_dead land (1 lsl node_of p) <> 0 in
  if List.exists (fun (s, d, _) -> dead s || dead d) st.net then
    push "message to or from a dead node";
  List.rev !bad

(* ------------------------------------------------------------------ *)
(* The complete branch vocabulary, for the dead-branch report: the
   handlers' and miss paths' marks (Coherence), the inline checks' and
   the crash transition's. *)

let all_branches =
  [
    "msg:read_req"; "msg:readex_req"; "msg:upgrade_req"; "msg:read_fwd";
    "msg:readex_fwd"; "msg:upgrade_fwd"; "msg:data_reply"; "msg:upgrade_reply";
    "msg:invalidate"; "msg:inval_ack"; "msg:sharing_wb"; "msg:own_ack";
    "msg:downgrade";
    "dir.busy_queue"; "dir.upgrade_as_readex"; "dir.read.serve_shared";
    "dir.read.home_exclusive"; "dir.read.forward"; "dir.readex.home_valid";
    "dir.readex.forward"; "dir.upgrade.serve"; "dir.drain";
    "inval.inline"; "inval.queued_on_downgrade"; "inval.mark_after_reply";
    "inval.kill_current_copy"; "inval.downgrade"; "inval.stale_ack";
    "fwd.queued_on_downgrade"; "fwd.queued_on_miss"; "fwd.read.exclusive";
    "fwd.read.shared"; "fwd.readex";
    "downgrade.immediate"; "downgrade.sibling"; "downgrade.complete";
    "downgrade.replay";
    "deferred.reply_read"; "deferred.reply_readex"; "deferred.inval_done";
    "entry.retire"; "entry.serve_early"; "entry.inval_after_reply";
    "entry.chain_ownership";
    "load.hit"; "load.pdg_consume"; "load.private_upgrade"; "load.false_miss";
    "load.stall_data"; "load.stall_drain"; "load.issue";
    "store.hit"; "store.pre_downgrade"; "store.private_upgrade";
    "store.stall_drain"; "store.merge"; "store.issue";
    "deferred.recovered";
    "crash.kill"; "crash.rehome"; "crash.unaffected"; "crash.cancel";
    "crash.unsend_data"; "crash.dg_recovered"; "crash.rescue";
    "crash.data_loss"; "crash.reinit"; "crash.rebuild"; "crash.reissue";
  ]

(* The branches only a crash can reach; a crash-free exploration reports
   them dead by construction, so the dead report counts them as expected
   unless the run enabled crashes. *)
let crash_branches =
  [
    "deferred.recovered";
    "crash.kill"; "crash.rehome"; "crash.unaffected"; "crash.cancel";
    "crash.unsend_data"; "crash.dg_recovered"; "crash.rescue";
    "crash.data_loss"; "crash.reinit"; "crash.rebuild"; "crash.reissue";
  ]

(* Branches that are structurally unreachable in the abstraction and
   therefore expected to show up dead; listed so the dead report can
   separate expected rot from real rot. Two families:

   One-word, one-block artifacts (content aliasing and defensive
   paths that a single checked word cannot reach):
   - msg:upgrade_fwd: upgrades are home-served; the Fwd Upgrade
     constructor exists only as a violation path.
   - load.pdg_consume / load.private_upgrade / load.false_miss:
     a checked load on the only word of the only block either hits or
     takes the full miss path; the partial-line states these branches
     serve cannot arise.

   Ordered-delivery artifacts: under the constant-latency network
   (see [enabled_actions]) in the 2-node geometry, directory busy
   serializes the transactions whose overlap these branches absorb:
   - dir.read.serve_shared: home Shared with a remote invalid reader
     needs a third node; with two nodes every path that leaves home
     Shared also leaves the other node Shared (reads that downgrade the
     remote owner hand the data to the only other node).
   - inval.stale_ack: a stale invalidate needs the invalidate to
     overtake a later ownership grant to the same destination, which
     ordered delivery forbids.
   - inval.queued_on_downgrade / fwd.queued_on_downgrade /
     downgrade.replay: a message landing inside an open §3.4.3
     downgrade window needs a second transaction to race the window's
     intra-node downgrade round trip; the busy bit plus
     cheapest-transfer-only overtaking close that race here.
   - fwd.queued_on_miss / entry.serve_early / fwd.read.shared:
     a forward reaching a node that is itself mid-miss (or an owner
     already demoted to Shared) needs the directory's owner update to
     outrun the data reply it chases; with two nodes the only eligible
     requesters are stalled on their own entry.

   These hold for this geometry and delivery discipline, not for the
   full simulator: the dynamic litmus/fuzz harnesses do exercise the
   queued-forward and replay paths of the same handlers. *)
let expected_dead =
  [
    "msg:upgrade_fwd";
    "load.pdg_consume"; "load.private_upgrade"; "load.false_miss";
    "dir.read.serve_shared"; "inval.stale_ack";
    "inval.queued_on_downgrade"; "fwd.queued_on_downgrade";
    "downgrade.replay";
    "fwd.queued_on_miss"; "entry.serve_early"; "fwd.read.shared";
  ]
