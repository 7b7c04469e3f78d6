module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Alloc = Shasta_mem.Alloc
module Bitset = Shasta_util.Bitset
module Machine = Shasta_core.Machine
module Msg = Shasta_core.Msg
module Observer = Shasta_core.Observer
module Directory = Shasta_core.Directory

(* A checkpoint is a consistent global snapshot of the protocol-visible
   durable state — per-node block images and state-table bases, private
   tables, and flattened directory entries — plus a log of every message
   sent since the snapshot. The snapshot piggybacks on the Observer
   [on_send] hook: it runs between scheduling points, charges no
   simulated cycles, and with checkpointing off ([SHASTA_CKPT] unset or
   0) no observer is installed at all, so simulated time is
   bit-identical.

   Recovery uses a checkpoint in two ways: the data bytes of a block
   whose last copy died are restored from the snapshot copy of its
   then-owner, superseded by the payload of the last [Data_reply] for
   the block in the log (the freshest copy that ever crossed the wire);
   and the per-block directory image is rolled forward by replaying the
   log's ownership-changing messages as absolute updates, which makes
   replay idempotent — applying any prefix twice leaves the same state
   as applying it once. *)

let iter_blocks m f =
  let used = Alloc.used_bytes m.Machine.heap in
  let pos = ref 0 in
  while !pos < used do
    f !pos;
    pos := !pos + Machine.block_size m !pos
  done

type dir_snap = { ds_owner : int; ds_sharers : int list }

type node_snap = {
  nsn_data : (int * Bytes.t) list;  (** block -> bytes, ascending blocks *)
  nsn_states : (int * State_table.base) list;
}

type snap = {
  sn_cycle : int;
  sn_nodes : node_snap array;
  sn_privates : (int * State_table.base) list array;  (** per pid *)
  sn_dirs : (int * dir_snap) list;  (** block -> directory image *)
}

let snapshot ?(now = 0) m =
  let layout = m.Machine.layout in
  let blocks = ref [] in
  iter_blocks m (fun b -> blocks := b :: !blocks);
  let blocks = List.rev !blocks in
  let node_snap ns =
    {
      nsn_data =
        List.map
          (fun b ->
            (b, Image.snapshot ns.Machine.image ~addr:b ~len:(Machine.block_size m b)))
          blocks;
      nsn_states =
        List.map
          (fun b -> (b, State_table.get ns.Machine.table (Layout.line_of layout b)))
          blocks;
    }
  in
  {
    sn_cycle = now;
    sn_nodes = Array.map node_snap m.Machine.nodes;
    sn_privates =
      Array.map
        (fun tbl ->
          List.map (fun b -> (b, State_table.get tbl (Layout.line_of layout b))) blocks)
        m.Machine.privates;
    sn_dirs =
      List.map
        (fun b ->
          let home = Machine.home_of_block m b in
          match Directory.find m.Machine.dirs.(home) ~block:b with
          | Some e ->
            ( b,
              {
                ds_owner = e.Directory.owner;
                ds_sharers = Bitset.elements e.Directory.sharers;
              } )
          | None -> (b, { ds_owner = home; ds_sharers = [] }))
        blocks;
  }

(* Write a snapshot back into the machine: block bytes and state-table
   bases per node, private bases per processor, directory owner/sharers
   per block (busy cleared, queues dropped). Only meaningful on a
   machine with the same layout/allocations the snapshot was taken
   from. *)
let restore m s =
  let layout = m.Machine.layout in
  let set_lines tbl b st =
    let first = Layout.line_of layout b in
    let n = Machine.block_size m b / layout.Layout.line_size in
    for l = first to first + n - 1 do
      State_table.set tbl l st
    done
  in
  Array.iteri
    (fun i nsn ->
      let ns = m.Machine.nodes.(i) in
      List.iter
        (fun (b, data) -> Image.write_bytes ns.Machine.image ~addr:b data)
        nsn.nsn_data;
      List.iter (fun (b, st) -> set_lines ns.Machine.table b st) nsn.nsn_states)
    s.sn_nodes;
  Array.iteri
    (fun p states ->
      List.iter (fun (b, st) -> set_lines m.Machine.privates.(p) b st) states)
    s.sn_privates;
  List.iter
    (fun (b, d) ->
      let home = Machine.home_of_block m b in
      let e = Directory.entry m.Machine.dirs.(home) ~block:b ~home in
      e.Directory.owner <- d.ds_owner;
      e.Directory.sharers <- Bitset.of_list d.ds_sharers;
      e.Directory.busy <- false;
      e.Directory.queue <- [])
    s.sn_dirs

(* ------------------------------------------------------------------ *)
(* Log replay: the per-block directory image as a pure fold over the
   message log. Every update is absolute (sets membership or ownership
   outright, never increments), so the final value of each field is
   decided by the last relevant message — replaying any prefix a second
   time reproduces the same state, which is what makes a checkpoint
   whose log tail partially overlaps the next snapshot safe. *)

let replay_dir ~block (owner, sharers) (_src, dst, msg) =
  match msg with
  | Msg.Data_reply { kind = Msg.Read; block = b; _ } when b = block ->
    (owner, Bitset.add dst sharers)
  | Msg.Data_reply { block = b; _ } when b = block ->
    (dst, Bitset.singleton dst)
  | Msg.Upgrade_reply { block = b; _ } when b = block -> (dst, Bitset.singleton dst)
  | Msg.Invalidate { block = b; _ } when b = block ->
    (owner, Bitset.remove dst sharers)
  | Msg.Sharing_wb { block = b; new_sharer } when b = block ->
    (owner, Bitset.add new_sharer (Bitset.add owner sharers))
  | _ -> (owner, sharers)

let replay ~block init log = List.fold_left (replay_dir ~block) init log

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
          t.snap <- snapshot ~now t.m;
          t.log <- [];
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
    { m; interval; last_cycle = 0; snap = snapshot ~now:0 m; log = []; snapshots = 1 }
  in
  Machine.add_observer m (observer t);
  t

let snapshots t = t.snapshots
let log_length t = List.length t.log

(* Best-recoverable bytes for [block]: the payload of the last
   [Data_reply] for the block in the log, else the snapshot copy of the
   block's then-owner node. *)
let recover_data t ~block =
  let logged =
    List.fold_left
      (fun acc (_src, _dst, msg) ->
        match (acc, msg) with
        | None, Msg.Data_reply { block = b; data; _ } when b = block ->
          Some (Bytes.copy data)
        | _ -> acc)
      None (List.rev t.log)
  in
  match logged with
  | Some _ as r -> r
  | None -> (
    match List.assoc_opt block t.snap.sn_dirs with
    | None -> None
    | Some d ->
      let owner_node = Machine.node_of t.m d.ds_owner in
      List.assoc_opt block t.snap.sn_nodes.(owner_node).nsn_data
      |> Option.map Bytes.copy)

(* The directory image of [block] as of the crash instant: snapshot
   directory rolled forward through the log. *)
let recover_dir t ~block =
  let init =
    match List.assoc_opt block t.snap.sn_dirs with
    | Some d -> (d.ds_owner, Bitset.of_list d.ds_sharers)
    | None -> (Machine.home_of_block t.m block, Bitset.empty)
  in
  replay ~block init (List.rev t.log)
