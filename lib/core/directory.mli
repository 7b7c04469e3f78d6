(** Per-home directory state.

    Each home processor keeps, for every block on its pages, the identity
    of the current owner (the last processor that held an exclusive copy)
    and a bit vector of sharing processors. Only the first processor of a
    node to request a block is recorded, which keeps protocol requests
    for a block serialized at one processor per node (§3.4.2).

    The [busy] flag covers the window between forwarding a request to the
    owner (or starting a local downgrade) and its completion
    acknowledgement; requests arriving in that window are queued in FIFO
    order and re-dispatched on completion. *)

type entry = {
  mutable owner : int;
  mutable sharers : Shasta_util.Bitset.t;
  mutable busy : bool;
  mutable queue : (int * Msg.req_kind) list;
      (** (source, request kind), newest first *)
}

type t

val create : unit -> t

val entry : t -> block:int -> home:int -> entry
(** Find or create; a fresh entry has [owner = home], no sharers, and is
    idle. *)

val find : t -> block:int -> entry option
(** Lookup without creating (for tests and invariant checks). *)

val iter : (int -> entry -> unit) -> t -> unit

val clear : t -> unit
(** Drop every entry — a crashed home's directory, about to be rebuilt
    (crash recovery only). *)

val remove : t -> block:int -> unit
(** Drop one entry (crash recovery: a block re-homed away). *)

val push_queued : entry -> src:int -> Msg.req_kind -> unit
(** Append a request to the busy-entry queue (FIFO). *)

val pop_queued : entry -> (int * Msg.req_kind) option
(** Remove the oldest queued request. *)
