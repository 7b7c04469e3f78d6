(* Exhaustive reachability over the abstract protocol model.

   Breadth-first enumeration of every state reachable from the
   post-allocation state under any interleaving of checked accesses and
   message deliveries, with per-(src,dst) channels bounded by
   [params.bound]. States are canonicalized by interning: the model's
   records are deep-copied before each step and never mutated after
   being added to the table, so structural equality and hashing give
   each reachable configuration exactly one id. BFS order makes the
   parent chain of the first violating step a minimal counterexample
   (fewest actions from the initial state). Only the chain's actions
   are kept; a counterexample is described by replaying them from the
   initial state. *)

module M = Model

(* States interned by a hash of the whole state. The polymorphic hash
   stops after ten words, which the directory, home and private states
   use up, so the clean space's 3,928 states would share 308 values. *)
module States = Hashtbl.Make (struct
  type t = M.state

  let equal = ( = )
  let hash = Hashtbl.hash_param 100 256
end)

type params = {
  home : int;
  bound : int;
  fault : Shasta_core.Config.fault option;
  crashes : bool;  (** enable the node-crash transition *)
  max_states : int;
  stop_at_first : bool;  (** stop at the first violation (fault runs) *)
}

let default_params =
  { home = 2; bound = 2; fault = None; crashes = false;
    max_states = 4_000_000; stop_at_first = false }

type violation = {
  v_message : string;
  v_trace : string list;  (** action descriptions, initial state first *)
}

type result = {
  r_params : params;
  r_states : int;
  r_edges : int;
  r_violations : violation list;
  r_labels : (M.label, unit) Hashtbl.t;
  r_branches : (string, unit) Hashtbl.t;
  r_capped : bool;  (** [max_states] hit: enumeration incomplete *)
}

exception Done

let explore (p : params) =
  let t =
    M.create ~home:p.home ~bound:p.bound ?fault:p.fault ~crashes:p.crashes ()
  in
  let labels : (M.label, unit) Hashtbl.t = Hashtbl.create 512 in
  let branches : (string, unit) Hashtbl.t = Hashtbl.create 128 in
  t.M.on_label <-
    (fun l -> if not (Hashtbl.mem labels l) then Hashtbl.add labels l ());
  t.M.on_branch <-
    (fun b -> if not (Hashtbl.mem branches b) then Hashtbl.add branches b ());
  (* Start small and let the tables grow: the clean 2x2x1 space is ~3.9k
     states, and pre-sized bucket arrays would stay on the heap for the
     whole pass. The tables are only probed, never iterated, so their
     size cannot change the output. *)
  let ids : int States.t = States.create 1024 in
  (* id -> (parent id, action); absent for the root *)
  let parent : (int, int * M.action) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let next = ref 0 in
  let capped = ref false in
  let edges = ref 0 in
  let violations = ref [] in
  let intern st link =
    match States.find_opt ids st with
    | Some _ -> None
    | None ->
      if !next >= p.max_states then begin
        capped := true;
        None
      end
      else begin
        let id = !next in
        incr next;
        States.add ids st id;
        Option.iter (Hashtbl.add parent id) link;
        Queue.add (id, st) queue;
        Some id
      end
  in
  (* The actions from the initial state to [id], plus [extra], each
     described against the state it was taken in. *)
  let trace_to id extra =
    let rec walk id acc =
      match Hashtbl.find_opt parent id with
      | None -> acc
      | Some (pid, act) -> walk pid (act :: acc)
    in
    let replay =
      M.create ~home:p.home ~bound:p.bound ?fault:p.fault ~crashes:p.crashes ()
    in
    List.map
      (fun act ->
        let desc = M.describe_action replay.M.st act in
        (try M.step replay act with M.Model_violation _ -> ());
        desc)
      (walk id extra)
  in
  let report id extra msg =
    violations := { v_message = msg; v_trace = trace_to id extra } :: !violations;
    if p.stop_at_first then raise Done
  in
  let check_state id st =
    List.iter (fun msg -> report id [] msg) (M.check_invariants st)
  in
  (let st = M.initial ~home:p.home in
   match intern st None with
   | Some id -> ( try check_state id st with Done -> ())
   | None -> ());
  (try
     while not (Queue.is_empty queue) do
       let id, st = Queue.pop queue in
       List.iter
         (fun act ->
           t.M.st <- M.copy_state st;
           match M.step t act with
           | exception M.Model_violation msg -> report id [ act ] msg
           | () ->
             if not t.M.overflow then begin
               incr edges;
               match intern t.M.st (Some (id, act)) with
               | None -> ()
               | Some nid -> check_state nid t.M.st
             end)
         (M.enabled_actions ~crashes:p.crashes st)
     done
   with Done -> ());
  {
    r_params = p;
    r_states = !next;
    r_edges = !edges;
    r_violations = List.rev !violations;
    r_labels = labels;
    r_branches = branches;
    r_capped = !capped;
  }

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>%s@ counterexample (%d steps):" v.v_message
    (List.length v.v_trace);
  List.iteri (fun i act -> Format.fprintf ppf "@ %3d. %s" (i + 1) act) v.v_trace;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d states, %d edges%s%s: %d violation%s@]"
    r.r_states r.r_edges
    (match r.r_params.fault with
    | None -> ""
    | Some f ->
      " under fault "
      ^ (match f with
        | Shasta_core.Config.Skip_private_downgrade -> "skip-private-downgrade"
        | Shasta_core.Config.Skip_flag_stamp -> "skip-flag-stamp"))
    (if r.r_capped then " (CAPPED: enumeration incomplete)" else "")
    (List.length r.r_violations)
    (if List.length r.r_violations = 1 then "" else "s")

(* Dead-coverage report: model branches never hit, split into the
   structurally-expected set and genuine rot, plus the Msg tags outside
   the model (informational; `verify --reach --dead`). *)

type dead = {
  dead_branches : string list;  (** unexpectedly unreached *)
  dead_expected : string list;  (** unreached and listed as expected *)
  unmodeled_tags : string list;  (** Msg tags outside the coherence model *)
}

let dead_report r =
  let unreached =
    List.filter (fun b -> not (Hashtbl.mem r.r_branches b)) M.all_branches
  in
  (* Without the crash transition the crash branches are dead by
     construction, not rot. *)
  let expected_set =
    if r.r_params.crashes then M.expected_dead
    else M.expected_dead @ M.crash_branches
  in
  let expected, rot =
    List.partition (fun b -> List.mem b expected_set) unreached
  in
  let unmodeled =
    Array.to_list
      (Array.sub Shasta_core.Msg.tag_names M.coherence_tags
         (Array.length Shasta_core.Msg.tag_names - M.coherence_tags))
  in
  { dead_branches = rot; dead_expected = expected; unmodeled_tags = unmodeled }

let pp_dead ppf d =
  Format.fprintf ppf "@[<v>";
  (match d.dead_branches with
  | [] -> Format.fprintf ppf "no unexpectedly dead branches"
  | l ->
    Format.fprintf ppf "unexpectedly dead branches (%d):" (List.length l);
    List.iter (fun b -> Format.fprintf ppf "@   %s" b) l);
  Format.fprintf ppf "@ expected-dead (structural, %d):"
    (List.length d.dead_expected);
  List.iter (fun b -> Format.fprintf ppf "@   %s" b) d.dead_expected;
  Format.fprintf ppf "@ unmodeled sync tags (%d):"
    (List.length d.unmodeled_tags);
  List.iter (fun b -> Format.fprintf ppf "@   %s" b) d.unmodeled_tags;
  Format.fprintf ppf "@]"
