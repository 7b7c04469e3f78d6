(** Ring-buffer flight recorder for protocol events.

    One fixed-capacity ring per simulated processor; appending is a
    store and an increment, and overflow silently overwrites the oldest
    entries of that processor (the newest events always survive —
    flight-recorder semantics). The recorder never charges simulated
    cycles: attaching one leaves every cycle count bit-identical.

    Events are attributed to the {e executing} processor, whose
    per-proc stream is a pure function of virtual time. [events]
    therefore returns the same list under the run-ahead and always-yield
    schedulers, which the trace-golden test uses as a determinism
    oracle.

    It records every {!Shasta_core.Event.t}: the protocol events and,
    through {!Shasta_core.Observer.of_events}, every message as a
    [Send] and a [Recv]. High-volume application [on_load]/[on_store]
    hooks are deliberately not recorded (the race detector consumes
    those). *)

type t

val default_capacity : int
(** 65536 events per processor. *)

val create : ?capacity:int -> nprocs:int -> unit -> t
(** [capacity] (per processor) is rounded up to a power of two,
    minimum 2. *)

val observer : t -> Shasta_core.Observer.t
(** The recording hooks, for manual composition. *)

val attach : ?capacity:int -> Shasta_core.Machine.t -> t
(** [create] + install on the machine (composes with any existing
    observer). *)

val capacity : t -> int
(** Actual per-processor ring capacity (after power-of-two rounding). *)

val recorded : t -> int
(** Total events ever appended, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overflow. *)

val proc_events : t -> int -> Shasta_core.Event.t list
(** Retained events of one processor, oldest first. *)

val events : t -> Shasta_core.Event.t list
(** All retained events merged by (time, proc, per-proc order) — the
    canonical scheduler-invariant stream. *)
