(** Litmus model checker: bounded exhaustive exploration of scheduler
    interleavings over small 2-node / 4-processor scenarios aimed at the
    intra-node downgrade window (§3.4.3).

    Each scenario is replayed under {!Shasta_core.Dsm.run_controlled}
    with schedules encoded as prefixes of choice indices over {e
    eligible} decision points (>= 2 runnable processors while protocol
    work is in flight); the tree of deviations from the default schedule
    is explored depth-first up to a deviation budget, with a simple
    sleep-set reduction pruning alternatives that cannot interact with
    the segment they would displace. Every run is checked by the online
    {!Sanitizer}, the {!Shasta_core.Inspect} post-run sweep, a
    scenario-specific outcome predicate, and the cycle-limit livelock
    backstop. *)

type instance = {
  handle : Shasta_core.Dsm.handle;
  body : Shasta_core.Dsm.ctx -> unit;
  final : unit -> string option;
      (** outcome check after a clean run; [Some what] = failure *)
  crash_final : live:(int -> bool) -> string option;
      (** outcome check after a run with a scheduled crash: dead
          processors never ran their final loads, and recovery may
          legitimately roll a lost block back to an older (or zeroed)
          value, so each live processor's observation need only be in
          the scenario's reachable-value set *)
}

type scenario = {
  name : string;
  what : string;  (** one-line description of the exercised window *)
  make : fault:Shasta_core.Config.fault option -> instance;
}

val scenarios : scenario list
(** The built-in suite; every scenario drives at least one downgrade
    with queued-or-racing traffic on the downgraded block. *)

type failure = { prefix : int list; what : string }
(** A failing schedule: the choice-index prefix reproduces it exactly
    under [check] with the same scenario and fault. *)

type report = {
  scenario : string;
  what : string;
  runs : int;
  decision_points : int;  (** eligible points on the default schedule *)
  capped : bool;  (** run budget exhausted before the frontier emptied *)
  failures : failure list;
}

val check :
  ?fault:Shasta_core.Config.fault ->
  ?budget:int ->
  ?max_runs:int ->
  scenario ->
  report
(** Explore one scenario. [budget] (default 2) bounds deviations from
    the default schedule per run; [max_runs] (default 20000) bounds
    total replays — [capped] reports whether it bit. The built-in suite
    completes uncapped at the defaults. *)

val check_all :
  ?fault:Shasta_core.Config.fault ->
  ?budget:int ->
  ?max_runs:int ->
  unit ->
  report list

val pp_report : Format.formatter -> report -> unit

(** {1 Crash placement sweep}

    The same delay-bounded DFS with a node crash scheduled at a virtual
    cycle harvested from the default run's send timestamps, so the
    crash lands inside in-flight-message windows (mid-downgrade,
    mid-miss, mid-barrier). Each placement is swept for both nodes and
    explored around with schedule deviations; a run must recover with
    the sanitizer, the post-run invariant sweep, and the crash-aware
    outcome check clean, or fail with the typed
    {!Shasta_recover.Recover.Recovery_violation}. *)

type crash_mode =
  | Pull  (** sharer-pull recovery; a typed [Data_loss] is counted, not failed *)
  | Ckpt of int
      (** checkpoint + log recovery at the given interval
          (cycles); any [Data_loss] is a failure *)

type crash_failure = {
  cf_at : int;  (** crash cycle *)
  cf_node : int;  (** crashed node *)
  cf_prefix : int list;  (** schedule deviation prefix *)
  cf_what : string;
}

type crash_report = {
  cc_scenario : string;
  cc_mode : string;  (** "pull" or "ckpt" *)
  cc_placements : int;  (** (cycle, node) pairs swept *)
  cc_runs : int;
  cc_data_loss : int;  (** typed Data_loss outcomes (pull mode only) *)
  cc_capped : bool;
  cc_failures : crash_failure list;
}

val check_crash :
  ?mode:crash_mode ->
  ?budget:int ->
  ?max_runs:int ->
  ?max_clocks:int ->
  scenario ->
  crash_report
(** Sweep one scenario. [mode] defaults to [Pull], [budget] (schedule
    deviations per placement) to 1, [max_runs] to 4000 across all
    placements, [max_clocks] (crash cycles sampled from the default
    run) to 12. *)

val check_crash_all :
  ?mode:crash_mode ->
  ?budget:int ->
  ?max_runs:int ->
  ?max_clocks:int ->
  unit ->
  crash_report list

val pp_crash_report : Format.formatter -> crash_report -> unit
