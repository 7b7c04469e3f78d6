module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Machine = Shasta_core.Machine
module Config = Shasta_core.Config
module Observer = Shasta_core.Observer
module Event = Shasta_core.Event
module Inspect = Shasta_core.Inspect
module Miss_table = Shasta_core.Miss_table
module Downgrade = Shasta_core.Downgrade

type t = {
  m : Machine.t;
  limit : int;
  mutable events : int;
  mutable nviolations : int;
  mutable violations : Inspect.violation list;  (* newest first *)
}

let push t block subject what =
  t.nviolations <- t.nviolations + 1;
  if t.nviolations <= t.limit then
    t.violations <- { Inspect.block; subject; what } :: t.violations

(* Every node-state transition re-checks the cross-node copy invariants
   for the affected block, the private-table discipline of the node that
   moved, and — on a transition to Invalid with no local reason for the
   flags to be missing — the invalid-flag stamping discipline. All hook
   sites fire after the protocol applied the mutation (and after sibling
   private entries were lowered), so a correct protocol passes at every
   single event. *)
let check_state t ~node ~block ~from_ ~to_ =
  t.events <- t.events + 1;
  let m = t.m in
  let line = Layout.line_of m.Machine.layout block in
  let exclusive = ref 0 and valid = ref 0 in
  Array.iter
    (fun ns ->
      match State_table.get ns.Machine.table line with
      | State_table.Exclusive ->
        incr exclusive;
        incr valid
      | State_table.Shared -> incr valid
      | State_table.Invalid -> ())
    m.Machine.nodes;
  if !exclusive > 1 then
    push t block Inspect.Machine_wide
      (Printf.sprintf "%d exclusive nodes after node %d moved to %s" !exclusive
         node
         (Format.asprintf "%a" State_table.pp_base to_));
  if not (Inspect.block_transient m block) then begin
    if !exclusive = 1 && !valid > 1 then
      push t block Inspect.Machine_wide "exclusive node coexists with sharers";
    if !valid = 0 then push t block Inspect.Machine_wide "no valid copy anywhere"
  end;
  let ns = m.Machine.nodes.(node) in
  if
    State_table.rank to_ < State_table.rank from_
    && not (Machine.block_in_batch m ns block)
  then
    List.iter
      (fun p ->
        if
          State_table.rank (State_table.get m.Machine.privates.(p) line)
          > State_table.rank to_
        then
          push t block (Inspect.Proc p)
            (Printf.sprintf "private state above %s after node %d downgrade"
               (Format.asprintf "%a" State_table.pp_base to_)
               node))
      (Config.procs_of_node m.Machine.cfg node);
  (* Flag-stamping discipline: the stamp always precedes the state drop
     within one handler, so an Invalid transition with no local deferral
     reason must already observe the flag pattern (store-merge ranges of
     a local miss are legitimately left unstamped). *)
  if
    to_ = State_table.Invalid
    && (not (Hashtbl.mem ns.Machine.deferred_flags block))
    && (not (Machine.block_in_batch m ns block))
    && Miss_table.find ns.Machine.misses ~block = None
  then begin
    let size = Machine.block_size m block in
    let clean = ref true in
    for w = 0 to (size / 8) - 1 do
      if not (Image.is_flag64 (Image.load64 ns.Machine.image (block + (8 * w))))
      then clean := false
    done;
    if not !clean then
      push t block (Inspect.Node node)
        "transitioned to Invalid without the flag pattern stamped"
  end

let check_private t ~proc ~block ~from_ ~to_ =
  t.events <- t.events + 1;
  if State_table.rank to_ > State_table.rank from_ then begin
    let m = t.m in
    let node = Machine.node_of m proc in
    let ns = m.Machine.nodes.(node) in
    let line = Layout.line_of m.Machine.layout block in
    if
      (not (Machine.block_in_batch m ns block))
      && State_table.rank to_
         > State_table.rank (State_table.get ns.Machine.table line)
    then
      push t block (Inspect.Proc proc)
        (Printf.sprintf "private raised above node %d shared state" node)
  end

let check_pending t ~node ~block ~set =
  t.events <- t.events + 1;
  if
    set
    && Miss_table.find t.m.Machine.nodes.(node).Machine.misses ~block = None
  then push t block (Inspect.Node node) "pending set with no outstanding miss"

let check_pending_downgrade t ~node ~block ~set =
  t.events <- t.events + 1;
  let dg = Downgrade.find t.m.Machine.nodes.(node).Machine.downgrades ~block in
  match (set, dg) with
  | true, None ->
    push t block (Inspect.Node node)
      "pending-downgrade set with no downgrade entry"
  | false, Some _ ->
    push t block (Inspect.Node node)
      "pending-downgrade cleared with the downgrade entry still present"
  | _ -> ()

let attach ?(limit = 100) m =
  let t = { m; limit; events = 0; nviolations = 0; violations = [] } in
  let on_event (e : Event.t) =
    match e.payload with
    | State { node; block; from_; to_ } ->
      check_state t ~node ~block ~from_ ~to_
    | Private { target; block; from_; to_ } ->
      check_private t ~proc:target ~block ~from_ ~to_
    | Pending { node; block; set } -> check_pending t ~node ~block ~set
    | Pending_downgrade { node; block; set } ->
      check_pending_downgrade t ~node ~block ~set
    | _ -> ()
  in
  Machine.add_observer m { Observer.nil with on_event };
  t

let events t = t.events
let violation_count t = t.nviolations
let violations t = List.rev t.violations

let check t =
  if t.nviolations > 0 then raise (Inspect.Violation (violations t))
