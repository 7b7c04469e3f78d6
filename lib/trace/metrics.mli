(** Online metrics registry derived from the protocol's events
    ({!Shasta_core.Event.t}, through {!Shasta_core.Observer.of_events}).

    Maintains {!Shasta_util.Histogram} distributions (paper Tables 5-8
    flavour) incrementally, so they are exact even when the event
    {!Recorder} ring has dropped old entries: miss latency (allocation
    to retirement, chained upgrades included), downgrade round-trip
    (pending-downgrade set to clear), wire message sizes, per-receiver
    message handling load ("home occupancy"), and per-kind message
    counters. Never charges simulated cycles. *)

type t

val create : unit -> t

val observer : t -> Shasta_core.Observer.t
(** The metering hooks, for manual composition. *)

val attach : Shasta_core.Machine.t -> t
(** [create] + install on the machine. *)

val merge_into : into:t -> t -> unit
(** Pointwise accumulate [src] into [into] (commutative/associative, so
    a cross-run aggregate is independent of run completion order). *)

val misses : t -> int
val sends : t -> int
val recvs : t -> int
val downgrades : t -> int

val miss_latency : t -> Shasta_util.Histogram.t
val downgrade_rtt : t -> Shasta_util.Histogram.t
val msg_size : t -> Shasta_util.Histogram.t

val msg_kind : t -> Shasta_util.Histogram.t
(** Keyed by {!Shasta_core.Msg.tag}. *)

val home_occupancy : t -> Shasta_util.Histogram.t
(** Keyed by receiving processor id. *)

val to_json : t -> string
(** One JSON object: counters plus [count/p50/p90/p99/p999/max] summaries and
    a [msg_kinds] name-to-count object. *)

val pp : Format.formatter -> t -> unit
