(** Conformance between real runs and the abstract model: every
    protocol event ({!Shasta_core.Event.t}) of a 2-node run, projected to the model's
    home-relative label space, must be a member of the clean model's
    exhaustively-enumerated label vocabulary. Sound for 2-node configs
    only (the litmus geometry). *)

type t = {
  observer : Shasta_core.Observer.t;
      (** install with [Dsm.add_observer] before the run *)
  mismatches : unit -> string list;
      (** distinct out-of-model labels, first-seen order; empty =
          conformant *)
  events : unit -> int;  (** total projected events checked *)
}

val make : labels:(Model.label, unit) Hashtbl.t -> Shasta_core.Machine.t -> t

val reference : ?bound:int -> unit -> Reach.result
(** Memoized clean-model exploration (default channel bound 2). Raises
    [Failure] if the clean model violates its own invariants. *)

val reference_labels : ?bound:int -> unit -> (Model.label, unit) Hashtbl.t
