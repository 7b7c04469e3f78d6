(* Conformance between real runs and the abstract model.

   An exhaustive exploration of the clean model yields its complete
   label vocabulary (Reach.r_labels): every state/private/pending/pdg
   transition and every message send the protocol can perform on one
   block, projected to home-relative coordinates. A real 2-node run's
   event stream (Core.Event) projects into the same space; conformance means
   every projected event is a member — i.e. nothing the simulator does
   on any block falls outside what the model says the protocol can do.

   The projection is per-block and home-relative (booleans "on the home
   node or not" instead of pids), so one model exploration covers every
   block of a run regardless of where it is homed. It is only sound for
   2-node configs: with more nodes a run exhibits shapes (e.g. a
   non-home third party) that the 2-node model cannot produce. *)

module M = Model
module Core = Shasta_core
module St = Shasta_mem.State_table

type t = {
  observer : Core.Observer.t;
      (** install with [Dsm.add_observer] before the run *)
  mismatches : unit -> string list;
      (** distinct out-of-model labels, first-seen order *)
  events : unit -> int;  (** total projected events checked *)
}

let make ~labels (m : Core.Machine.t) =
  let seen_bad : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let events = ref 0 in
  let record l =
    incr events;
    if not (Hashtbl.mem labels l) then begin
      let d = M.describe_label l in
      if not (Hashtbl.mem seen_bad d) then begin
        Hashtbl.add seen_bad d ();
        order := d :: !order
      end
    end
  in
  let node_of p = Core.Machine.node_of m p in
  let home_node block = node_of (Core.Machine.home_of_block m block) in
  let on_event { Core.Event.proc; payload; _ } =
    match payload with
    | State { node; block; from_; to_ } ->
      record
        (M.L_state
           {
             at_home = node = home_node block;
             from_ = St.rank from_;
             to_ = St.rank to_;
           })
    | Private { target; block; from_; to_ } ->
      record
        (M.L_private
           {
             at_home = node_of target = home_node block;
             self = proc = target;
             from_ = St.rank from_;
             to_ = St.rank to_;
           })
    | Pending { node; block; set } ->
      record (M.L_pending { at_home = node = home_node block; set })
    | Pending_downgrade { node; block; set } ->
      record (M.L_pdg { at_home = node = home_node block; set })
    | Send { dst; kind = tg; block; _ }
      when tg < M.coherence_tags && block >= 0 ->
      let hn = home_node block in
      record
        (M.L_send
           {
             tg;
             src_home = node_of proc = hn;
             dst_home = node_of dst = hn;
             same_node = node_of proc = node_of dst;
           })
    | _ -> ()
  in
  let observer = Core.Observer.of_events on_event in
  { observer; mismatches = (fun () -> List.rev !order); events = (fun () -> !events) }

(* Memoized clean-model exploration: the reference label vocabulary. *)
let reference_cache : (int * Reach.result) option ref = ref None

let reference ?(bound = 2) () =
  match !reference_cache with
  | Some (b, r) when b = bound -> r
  | _ ->
    (* The reference vocabulary is the CRASH-FREE model's: conformance
       checks crash-free runs only (Conformance skips machines that
       crashed), so the crash transition must not silently widen the
       label set the oracle accepts. *)
    let r =
      Reach.explore { Reach.default_params with Reach.bound; crashes = false }
    in
    (match r.Reach.r_violations with
    | [] -> ()
    | v :: _ ->
      failwith
        ("conformance reference model violates its own invariants: "
        ^ v.Reach.v_message));
    reference_cache := Some (bound, r);
    r

let reference_labels ?bound () = (reference ?bound ()).Reach.r_labels
