(** Per-line coherence state tables.

    A node's {e shared} table holds the base state plus the protocol's
    transient markers; each processor's {e private} table (SMP-Shasta)
    holds only a base state and is the one consulted by inline checks,
    which is what lets the checks run without synchronization or fences. *)

type base = Invalid | Shared | Exclusive

val base_geq : base -> base -> bool
(** [base_geq have need]: does state [have] permit an access requiring
    [need]? ([Shared] suffices for loads, [Exclusive] for stores.) *)

val rank : base -> int
(** [Invalid] 0, [Shared] 1, [Exclusive] 2: the access order that
    {!base_geq} tests. *)

type t

val create : Layout.t -> t
(** All lines start [Invalid] with no markers. *)

val get : t -> int -> base
val set : t -> int -> base -> unit

val unsafe_get_byte : t -> int -> int
(** Raw encoded byte for line [l]: base state in the low two bits plus
    the transient marker bits.  Bounds-checked by [assert] only. No
    build passes [-noassert] (see the root [dune]), so the assert runs
    in every build, release included. *)

val unsafe_set_byte : t -> int -> int -> unit
(** Raw byte store; same assert-only bounds policy as
    {!unsafe_get_byte}. *)

val clean_geq : t -> int -> base -> bool
(** [clean_geq t l need]: single-byte fused check — the line's base
    state satisfies [base_geq base need] {e and} no pending /
    pending-downgrade / batch marker is set.  This is the inline-check
    fast-path predicate: a [true] answer means the access can complete
    against the local image without entering the protocol. *)

val pending : t -> int -> bool
(** A miss for this line's block is outstanding (request sent, reply not
    yet processed). *)

val set_pending : t -> int -> bool -> unit

val pending_downgrade : t -> int -> bool
(** An intra-node downgrade is in flight for this line's block. *)

val set_pending_downgrade : t -> int -> bool -> unit

val batch_marker : t -> int -> bool
(** The line is inside an active batch; invalid-flag stores into it must
    be deferred until the batch ends (§3.4.4). *)

val set_batch_marker : t -> int -> bool -> unit

val pp_base : Format.formatter -> base -> unit
