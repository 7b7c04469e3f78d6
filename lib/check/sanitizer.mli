(** Online protocol invariant sanitizer.

    Reads a machine's state-table and pending events
    ({!Shasta_core.Observer}'s [on_event]) and incrementally re-checks
    per-block protocol invariants at every state transition, instead
    of waiting for a whole-machine sweep: single exclusive copy,
    directory/state-table agreement, private-vs-shared table
    consistency, pending / pending-downgrade lifecycle, and the
    invalid-flag stamping discipline. Each check is O(nodes + procs) in
    the affected block only, so the sanitizer runs on real workloads
    ([SHASTA_SANITIZE=1]). Cycle-neutral: hooks never charge simulated
    time. *)

type t

val attach : ?limit:int -> Shasta_core.Machine.t -> t
(** Install the sanitizer (composes with any other observer). At most
    [limit] (default 100) violations are retained; the count keeps
    incrementing. *)

val events : t -> int
(** Transitions checked so far. *)

val violation_count : t -> int

val violations : t -> Shasta_core.Inspect.violation list
(** Retained violations in detection order. *)

val check : t -> unit
(** Raise {!Shasta_core.Inspect.Violation} if anything was detected. *)
