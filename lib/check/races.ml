module Machine = Shasta_core.Machine
module Config = Shasta_core.Config
module Observer = Shasta_core.Observer
module Event = Shasta_core.Event
module Msg = Shasta_core.Msg

type access = Load | Store

type race = {
  addr : int;
  first_kind : access;
  first_proc : int;
  first_now : int;  (** virtual cycle of the earlier access on its processor *)
  second_kind : access;
  second_proc : int;
  second_now : int;
}

(* Last-writer epoch plus a read table per 8-byte word (FastTrack-style:
   one epoch per reader suffices because reads are checked against the
   writer only). *)
type shadow = {
  mutable w_proc : int;  (* -1 = never written *)
  mutable w_clk : int;
  mutable w_now : int;
  reads : (int, int * int) Hashtbl.t;  (* proc -> (clk, now) *)
}

type t = {
  m : Machine.t;
  nprocs : int;
  proc_vc : Vclock.t array;
  channels : (int * int, Vclock.t Queue.t) Hashtbl.t;  (* (src, dst) *)
  store_vc : (int * int, Vclock.t) Hashtbl.t;  (* (node, block) *)
  copy_vc : (int * int, Vclock.t) Hashtbl.t;  (* (node, block) *)
  downgrade_vc : (int * int, Vclock.t) Hashtbl.t;  (* (node, block) *)
  lock_vc : (int, Vclock.t) Hashtbl.t;
  barrier_vc : (int * int, Vclock.t) Hashtbl.t;  (* (barrier, epoch) *)
  shadows : (int, shadow) Hashtbl.t;  (* 8-byte word address *)
  seen : (int * int * int * bool * bool, unit) Hashtbl.t;
  mutable races : race list;  (* newest first *)
}

let find_vc table key n =
  match Hashtbl.find_opt table key with
  | Some vc -> vc
  | None ->
    let vc = Vclock.create n in
    Hashtbl.replace table key vc;
    vc

let channel t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.channels (src, dst) q;
    q

(* A message send publishes the sender's knowledge; a data reply
   additionally publishes everything its node's copy of the block
   carries — sibling stores the sender never synchronized with
   ([store_vc]) and knowledge that arrived with the copy itself
   ([copy_vc]). *)
let on_send t ~src ~dst ~kind ~block =
  let snap = Vclock.copy t.proc_vc.(src) in
  if kind = Msg.data_reply_tag then begin
    let node = Machine.node_of t.m src in
    (match Hashtbl.find_opt t.store_vc (node, block) with
    | Some vc -> Vclock.join snap vc
    | None -> ());
    match Hashtbl.find_opt t.copy_vc (node, block) with
    | Some vc -> Vclock.join snap vc
    | None -> ()
  end;
  Queue.push snap (channel t ~src ~dst)

(* Message delivery merges the channel snapshot into the receiver; a
   data reply also deposits it on the receiving node's copy, so siblings
   that later read the fetched data inherit the edge without a message
   of their own. Sends and receives are 1:1 per (src, dst) pair and the
   network delivers each pair FIFO, so the queue head is always the
   matching snapshot. *)
let on_recv t ~src ~dst ~kind ~block =
  let q = channel t ~src ~dst in
  if not (Queue.is_empty q) then begin
    let snap = Queue.pop q in
    Vclock.join t.proc_vc.(dst) snap;
    if kind = Msg.data_reply_tag then
      let node = Machine.node_of t.m dst in
      Vclock.join (find_vc t.copy_vc (node, block) t.nprocs) snap
  end

(* Vector-clock edges that go through an accumulator: the event's
   processor joins its clock into it ([join_into]) or absorbs it.
   - A release publishes the holder's clock on the lock, an acquire
     absorbs it.
   - A barrier episode orders every pre-barrier access before every
     post-barrier one: arrivals accumulate, leaves absorb. The protocol
     emits every arrival of an episode before any leave of it, so one
     accumulator per (barrier, epoch) is enough.
   - Intra-node downgrades: every sibling that handles a downgrade
     message for a block deposits its clock on the node's accumulator;
     the processor that executes the deferred action (the last handler)
     absorbs them, and the next downgrade starts afresh. *)
let join_into t table key ~proc =
  Vclock.join (find_vc table key t.nprocs) t.proc_vc.(proc)

let absorb t table key ~proc =
  match Hashtbl.find_opt table key with
  | None -> ()
  | Some vc -> Vclock.join t.proc_vc.(proc) vc

let on_event t { Event.proc; payload; _ } =
  match payload with
  | Send { dst; kind; block; _ } -> on_send t ~src:proc ~dst ~kind ~block
  | Recv { src; kind; block; _ } -> on_recv t ~src ~dst:proc ~kind ~block
  | Lock_released { lock } -> join_into t t.lock_vc lock ~proc
  | Lock_acquired { lock } -> absorb t t.lock_vc lock ~proc
  | Barrier_arrive { barrier; epoch } ->
    join_into t t.barrier_vc (barrier, epoch) ~proc
  | Barrier_leave { barrier; epoch } ->
    absorb t t.barrier_vc (barrier, epoch) ~proc
  | Downgrade_ack { block } ->
    join_into t t.downgrade_vc (Machine.node_of t.m proc, block) ~proc
  | Downgrade_done { block } ->
    let key = (Machine.node_of t.m proc, block) in
    absorb t t.downgrade_vc key ~proc;
    Hashtbl.remove t.downgrade_vc key
  | _ -> ()

let shadow t addr =
  match Hashtbl.find_opt t.shadows addr with
  | Some s -> s
  | None ->
    let s = { w_proc = -1; w_clk = 0; w_now = 0; reads = Hashtbl.create 4 } in
    Hashtbl.replace t.shadows addr s;
    s

let report t ~addr ~first_kind ~first_proc ~first_now ~second_kind ~second_proc
    ~second_now =
  let key =
    (addr, first_proc, second_proc, first_kind = Store, second_kind = Store)
  in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    t.races <-
      {
        addr;
        first_kind;
        first_proc;
        first_now;
        second_kind;
        second_proc;
        second_now;
      }
      :: t.races
  end

(* One application access: absorb the knowledge carried by the node's
   copy of the block, advance this processor's component, then check the
   shadow word. Sibling stores are deliberately NOT absorbed here
   ([store_vc] flows only outward, through data replies): folding them
   into same-node readers would order every intra-node conflict and hide
   exactly the unsynchronized sibling accesses the downgrade protocol
   (§3.4.3) exists to make safe. *)
let access t kind ~proc ~addr ~len ~now =
  let block = Machine.block_base t.m addr in
  let node = Machine.node_of t.m proc in
  let vc = t.proc_vc.(proc) in
  (match Hashtbl.find_opt t.copy_vc (node, block) with
  | Some cvc -> Vclock.join vc cvc
  | None -> ());
  Vclock.tick vc proc;
  let clk = Vclock.get vc proc in
  let w = ref (addr land lnot 7) in
  while !w < addr + len do
    let s = shadow t !w in
    (* write-read / write-write: the last write must be ordered before
       this access. *)
    if s.w_proc >= 0 && s.w_proc <> proc && s.w_clk > Vclock.get vc s.w_proc
    then
      report t ~addr:!w ~first_kind:Store ~first_proc:s.w_proc
        ~first_now:s.w_now ~second_kind:kind ~second_proc:proc ~second_now:now;
    (match kind with
    | Store ->
      (* read-write: every recorded read must be ordered before a new
         write. *)
      Hashtbl.iter
        (fun q (qclk, qnow) ->
          if q <> proc && qclk > Vclock.get vc q then
            report t ~addr:!w ~first_kind:Load ~first_proc:q ~first_now:qnow
              ~second_kind:Store ~second_proc:proc ~second_now:now)
        s.reads;
      Hashtbl.reset s.reads;
      s.w_proc <- proc;
      s.w_clk <- clk;
      s.w_now <- now;
      Vclock.join (find_vc t.store_vc (node, block) t.nprocs) vc
    | Load -> Hashtbl.replace s.reads proc (clk, now));
    w := !w + 8
  done

let attach m =
  let nprocs = m.Machine.cfg.Config.nprocs in
  let t =
    {
      m;
      nprocs;
      proc_vc = Array.init nprocs (fun _ -> Vclock.create nprocs);
      channels = Hashtbl.create 64;
      store_vc = Hashtbl.create 64;
      copy_vc = Hashtbl.create 64;
      downgrade_vc = Hashtbl.create 16;
      lock_vc = Hashtbl.create 8;
      barrier_vc = Hashtbl.create 16;
      shadows = Hashtbl.create 1024;
      seen = Hashtbl.create 16;
      races = [];
    }
  in
  Machine.add_observer m
    {
      (Observer.of_events (on_event t)) with
      on_load =
        (fun ~proc ~addr ~len ~now -> access t Load ~proc ~addr ~len ~now);
      on_store =
        (fun ~proc ~addr ~len ~now -> access t Store ~proc ~addr ~len ~now);
    };
  t

let races t = List.rev t.races
let race_count t = List.length t.races

let describe r =
  let k = function Load -> "load" | Store -> "store" in
  Printf.sprintf
    "race on %#x: %s by proc %d (cycle %d) unordered with %s by proc %d (cycle %d)"
    r.addr (k r.first_kind) r.first_proc r.first_now (k r.second_kind)
    r.second_proc r.second_now
