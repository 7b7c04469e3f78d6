module Image = Shasta_mem.Image
module Network = Shasta_net.Network
module Machine = Shasta_core.Machine
module Msg = Shasta_core.Msg
module Observer = Shasta_core.Observer
module Directory = Shasta_core.Directory

(* A checkpoint is a snapshot of what recovery reads — every node's copy
   of each block and the block's directory owner — plus a log of every
   message sent since the snapshot. The snapshot piggybacks on the
   Observer [on_send] hook: it runs between scheduling points and
   charges no simulated cycles, and a run without a checkpointer
   installs no observer at all, so simulated time is bit-identical.

   The data bytes of a block whose last copy died are restored from the
   snapshot copy of its then-owner, superseded by the payload of the
   newest [Data_reply] for the block in the log. The snapshot does not
   record the network, so each log starts with the data replies in
   flight when it was taken: a reply's sender has already stamped its
   own copy, so its bytes are in no node image. *)

type snap = {
  sn_data : (int * Bytes.t) list array;
      (** per node: block -> bytes, ascending blocks *)
  sn_owners : (int * int) list;  (** block -> directory owner *)
}

let snapshot m =
  let blocks = ref [] in
  Machine.iter_blocks m (fun b -> blocks := b :: !blocks);
  let blocks = List.rev !blocks in
  {
    sn_data =
      Array.map
        (fun ns ->
          List.map
            (fun b ->
              ( b,
                Image.snapshot ns.Machine.image ~addr:b
                  ~len:(Machine.block_size m b) ))
            blocks)
        m.Machine.nodes;
    sn_owners =
      List.map
        (fun b ->
          let home = Machine.home_of_block m b in
          match Directory.find m.Machine.dirs.(home) ~block:b with
          | Some e -> (b, e.Directory.owner)
          | None -> (b, home))
        blocks;
  }

(* The data replies queued in the network, newest first. *)
let in_flight_replies m =
  let acc = ref [] in
  for dst = 0 to m.Machine.cfg.Shasta_core.Config.nprocs - 1 do
    Network.iter_queued m.Machine.net ~dst (fun ~src ~arrival msg ->
        match msg with
        | Msg.Data_reply _ -> acc := (arrival, src, dst, msg) :: !acc
        | _ -> ())
  done;
  List.sort
    (fun (a, s, d, _) (a', s', d', _) -> compare (a', s', d') (a, s, d))
    !acc
  |> List.map (fun (_, src, dst, msg) -> (src, dst, msg))

(* ------------------------------------------------------------------ *)
(* The running checkpointer. *)

type t = {
  m : Machine.t;
  interval : int;
  mutable last_cycle : int;
  mutable snap : snap;
  mutable log : (int * int * Msg.t) list;  (** newest first *)
  mutable snapshots : int;
}

let observer t =
  {
    Observer.nil with
    Observer.on_send =
      (fun ~src ~dst ~now msg ->
        t.log <- (src, dst, msg) :: t.log;
        if now - t.last_cycle >= t.interval then begin
          t.snap <- snapshot t.m;
          t.log <- in_flight_replies t.m;
          t.last_cycle <- now;
          t.snapshots <- t.snapshots + 1
        end);
  }

(* Attach a checkpointer: the initial machine state (data born at its
   home) is itself the first snapshot, so a crash before the first
   interval elapses can still restore. Returns the checkpointer; its
   observer is installed on the machine. *)
let attach m ~interval =
  if interval <= 0 then invalid_arg "Checkpoint.attach: interval must be positive";
  let t =
    {
      m;
      interval;
      last_cycle = 0;
      snap = snapshot m;
      log = in_flight_replies m;
      snapshots = 1;
    }
  in
  Machine.add_observer m (observer t);
  t

let snapshots t = t.snapshots

(* The contract: a lost block holds the bytes of the newest [Data_reply]
   for it logged since the snapshot or in flight at it (the freshest
   copy that left a node), else the snapshot copy of the block's
   then-owner node. The log is newest-first, so the first match is the
   newest. *)
let recover_data t ~block =
  let logged =
    List.find_map
      (fun (_src, _dst, msg) ->
        match msg with
        | Msg.Data_reply { block = b; data; _ } when b = block ->
          Some (Bytes.copy data)
        | _ -> None)
      t.log
  in
  match logged with
  | Some _ as r -> r
  | None -> (
    match List.assoc_opt block t.snap.sn_owners with
    | None -> None
    | Some owner ->
      List.assoc_opt block t.snap.sn_data.(Machine.node_of t.m owner)
      |> Option.map Bytes.copy)
