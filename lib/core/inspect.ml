module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Network = Shasta_net.Network

type subject = Node of int | Proc of int | Machine_wide
type violation = { block : int; subject : subject; what : string }

exception Violation of violation list

let describe v =
  let where =
    match v.subject with
    | Node n -> Printf.sprintf "node %d " n
    | Proc p -> Printf.sprintf "proc %d " p
    | Machine_wide -> ""
  in
  Printf.sprintf "block %#x: %s%s" v.block where v.what

let () =
  Printexc.register_printer (function
    | Violation vs ->
      Some
        ("Inspect.Violation:\n  " ^ String.concat "\n  " (List.map describe vs))
    | _ -> None)

(* A block with any protocol activity in flight anywhere — an
   outstanding miss, a downgrade, pending bits, a deferred flag write,
   an active batch, or a busy/queued directory entry — may legitimately
   break the settled-state invariants until that activity completes. *)
let block_transient (m : Machine.t) block =
  let layout = m.Machine.layout in
  let line = Layout.line_of layout block in
  Array.exists
    (fun ns ->
      Miss_table.find ns.Machine.misses ~block <> None
      || Downgrade.find ns.Machine.downgrades ~block <> None
      || State_table.pending ns.Machine.table line
      || State_table.pending_downgrade ns.Machine.table line
      || Hashtbl.mem ns.Machine.deferred_flags block
      || Hashtbl.mem ns.Machine.batch_wranges block
      || Machine.block_in_batch m ns block)
    m.Machine.nodes
  ||
  match Directory.find m.Machine.dirs.(Machine.home_of_block m block) ~block with
  | Some e -> e.Directory.busy || e.Directory.queue <> []
  | None -> false

let report (m : Machine.t) =
  let bad = ref [] in
  let push block subject what = bad := { block; subject; what } :: !bad in
  let layout = m.Machine.layout in
  Machine.iter_blocks m (fun block ->
      let line = Layout.line_of layout block in
      let transient = block_transient m block in
      let exclusive = ref 0 and valid = ref 0 in
      Array.iteri
        (fun n ns ->
          (match State_table.get ns.Machine.table line with
          | State_table.Exclusive ->
            incr exclusive;
            incr valid
          | State_table.Shared -> incr valid
          | State_table.Invalid -> ());
          (* Pending bits track the miss table; a pending-downgrade bit
             tracks the downgrade table. Both pairs are updated with no
             scheduling point in between, so a sweep never sees them
             disagree in a correct protocol. *)
          if
            State_table.pending ns.Machine.table line
            && Miss_table.find ns.Machine.misses ~block = None
          then push block (Node n) "pending with no outstanding miss";
          (match
             ( State_table.pending_downgrade ns.Machine.table line,
               Downgrade.find ns.Machine.downgrades ~block )
           with
          | true, None ->
            push block (Node n) "pending-downgrade with no downgrade entry"
          | false, Some _ ->
            push block (Node n) "downgrade entry without pending-downgrade bit"
          | _ -> ());
          (* Invalid and settled => flag pattern everywhere. *)
          if
            (not transient)
            && State_table.get ns.Machine.table line = State_table.Invalid
          then begin
            let size = Machine.block_size m block in
            let words = size / 8 in
            let clean = ref true in
            for w = 0 to words - 1 do
              if not (Image.is_flag64 (Image.load64 ns.Machine.image (block + (8 * w))))
              then clean := false
            done;
            if not !clean then
              push block (Node n) "invalid without flag pattern"
          end)
        m.Machine.nodes;
      if !exclusive > 1 then
        push block Machine_wide
          (Printf.sprintf "%d exclusive nodes" !exclusive);
      if (not transient) && !exclusive = 1 && !valid > 1 then
        push block Machine_wide "exclusive node coexists with sharers";
      if (not transient) && !valid = 0 then
        push block Machine_wide "no valid copy anywhere";
      (* Private entries never exceed the node's shared entry, except
         transiently under an active batch. *)
      Array.iteri
        (fun p priv ->
          let node = Machine.node_of m p in
          let ns = m.Machine.nodes.(node) in
          if
            (not (Machine.block_in_batch m ns block))
            && State_table.rank (State_table.get priv line)
               > State_table.rank (State_table.get ns.Machine.table line)
          then
            push block (Proc p)
              (Printf.sprintf "private overstates node %d shared state" node))
        m.Machine.privates);
  List.rev !bad

let check_invariants m = List.map describe (report m)

let assert_invariants m =
  match report m with [] -> () | vs -> raise (Violation vs)

let pp_base = State_table.pp_base

let dump ?block ppf (m : Machine.t) =
  let open Format in
  fprintf ppf "=== machine: %d procs, clustering %d ===@."
    m.Machine.cfg.Config.nprocs m.Machine.cfg.Config.clustering;
  Array.iteri
    (fun i (ps : Machine.proc_state) ->
      fprintf ppf "proc %2d: node %d, %s, category %s, outstanding stores %d@." i
        ps.Machine.node
        (if ps.Machine.finished then "finished" else "running")
        (Stats.category_name ps.Machine.category)
        ps.Machine.outstanding_stores)
    m.Machine.procs;
  Array.iteri
    (fun n (ns : Machine.node_state) ->
      List.iter
        (fun id ->
          match Miss_table.find_id ns.Machine.misses id with
          | Some e ->
            fprintf ppf
              "node %d miss: block %#x kind %s ready=%b acks %d/%d ranges %d@." n
              e.Miss_table.block
              (match e.Miss_table.kind with
              | Msg.Read -> "read"
              | Msg.Readex -> "readex"
              | Msg.Upgrade -> "upgrade")
              e.Miss_table.data_ready e.Miss_table.acks_received
              e.Miss_table.acks_expected
              (List.length e.Miss_table.store_ranges)
          | None -> ())
        (Miss_table.outstanding_ids ns.Machine.misses);
      if Downgrade.count ns.Machine.downgrades > 0 then
        fprintf ppf "node %d: %d downgrades in progress@." n
          (Downgrade.count ns.Machine.downgrades);
      if Hashtbl.length ns.Machine.deferred_flags > 0 then
        fprintf ppf "node %d: %d deferred flag writes@." n
          (Hashtbl.length ns.Machine.deferred_flags))
    m.Machine.nodes;
  Array.iteri
    (fun p d ->
      Directory.iter
        (fun b e ->
          if e.Directory.busy || e.Directory.queue <> [] then
            fprintf ppf "dir@%d block %#x: busy=%b owner=%d sharers=%a queue=%d@." p
              b e.Directory.busy e.Directory.owner Shasta_util.Bitset.pp
              e.Directory.sharers
              (List.length e.Directory.queue))
        d)
    m.Machine.dirs;
  Hashtbl.iter
    (fun id (ls : Machine.lock_state) ->
      if ls.Machine.held || ls.Machine.lock_queue <> [] then
        fprintf ppf "lock %d: holder %d, %d queued@." id ls.Machine.holder
          (List.length ls.Machine.lock_queue))
    m.Machine.locks;
  Hashtbl.iter
    (fun id (bs : Machine.barrier_state) ->
      fprintf ppf "barrier %d: arrived %d, generation %d@." id bs.Machine.arrived
        bs.Machine.generation)
    m.Machine.barriers;
  for p = 0 to m.Machine.cfg.Config.nprocs - 1 do
    let q = Network.queued m.Machine.net ~dst:p in
    if q > 0 then fprintf ppf "net: %d messages queued for proc %d@." q p
  done;
  match block with
  | None -> ()
  | Some b ->
    let line = Layout.line_of m.Machine.layout b in
    fprintf ppf "block %#x:@." b;
    Array.iteri
      (fun n ns ->
        fprintf ppf "  node %d: %a pend=%b pdg=%b@." n pp_base
          (State_table.get ns.Machine.table line)
          (State_table.pending ns.Machine.table line)
          (State_table.pending_downgrade ns.Machine.table line))
      m.Machine.nodes;
    Array.iteri
      (fun p priv ->
        fprintf ppf "  proc %d private: %a@." p pp_base (State_table.get priv line))
      m.Machine.privates
