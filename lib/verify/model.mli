(** Abstract model of the per-block coherence protocol: the simulator's
    own handlers and miss paths ({!Shasta_core.Coherence.Make}) run
    over an abstract state specialized to the litmus geometry (2
    coherence nodes x 2 processors, SMP variant, one block) with data
    abstracted to one invalid-flag bit per node copy. A crash runs
    recovery's own per-block decisions
    ({!Shasta_core.Coherence.Recovery}). This module adds only what is
    model-specific: that state, the inline checks of the load and store
    (the copy's flag bit and private Exclusive; what follows a failed
    check is {!Shasta_core.Coherence}'s), the fail-stop half of a crash,
    the delivery rule, the invariants and the branch lists.
    {!Reach} enumerates its complete reachable state space under a
    channel bound; {!Conform} checks that real runs stay inside its
    label set. *)

val coherence_tags : int
(** 13: the model's messages are the {!Shasta_core.Msg} coherence
    classes, tags [0 .. coherence_tags - 1]; sync messages (locks,
    barriers) do not touch per-block state and are outside the model. *)

(** {1 Abstract state}

    Mutable records stepped in place; the explorer deep-copies via
    {!copy_state} before each step and never mutates a state after
    interning it, so structural equality and hashing canonicalize. *)

type state

val copy_state : state -> state

val initial : home:int -> state
(** Post-allocation state: the home's node holds an exclusive unstamped
    copy (home processor's private state Exclusive), the other node is
    invalid and flag-stamped. *)

(** {1 Conformance labels}

    The schedule-independent projection of the Observer hook stream;
    see {!Conform}. *)

type label =
  | L_state of { at_home : bool; from_ : int; to_ : int }
  | L_private of { at_home : bool; self : bool; from_ : int; to_ : int }
  | L_pending of { at_home : bool; set : bool }
  | L_pdg of { at_home : bool; set : bool }
  | L_send of { tg : int; src_home : bool; dst_home : bool; same_node : bool }

val describe_label : label -> string

(** {1 Stepping} *)

exception Model_violation of string
(** A handler reached one of the protocol's impossible-configuration
    checks (the simulator's [Protocol_violation] sites). *)

type t = {
  home : int;  (** initial home (the current home lives in [st]) *)
  bound : int;
  fault : Shasta_core.Config.fault option;
  crashes : bool;  (** enable the node-crash transition *)
  mutable on_label : label -> unit;
  mutable on_branch : string -> unit;
  mutable overflow : bool;
  mutable st : state;
}

val create :
  ?home:int ->
  ?bound:int ->
  ?fault:Shasta_core.Config.fault ->
  ?crashes:bool ->
  unit ->
  t
(** [home] defaults to 2 (so the home node also has a non-home sibling
    processor), [bound] to 2 in-flight messages per (src, dst) pair,
    [crashes] to false (no crash transition). *)

type action =
  | Load of int
  | Store of int
  | Deliver of { src : int; dst : int }
  | Crash of int  (** node index: fail-stop the node, then recover *)

val enabled_actions : ?crashes:bool -> state -> action list
(** Checked load / checked store on the block by every live processor,
    plus the deliverable messages: in-flight entries every earlier entry
    of which has strictly higher minimum-latency rank (intra-node
    control < intra-node data < remote control < remote data) and a
    different (src, dst) pair — a later send can only overtake an
    earlier one with a strictly cheaper transfer, and never on its own
    pair. With [crashes] (default false), additionally [Crash n] for
    each node while no node is dead yet: at most one crash per run,
    since the last live node may not die. *)

val describe_action : state -> action -> string

val step : t -> action -> unit
(** Execute one action against [t.st] in place, emitting labels and
    branch names through the hooks. Raises {!Model_violation} at a
    defensive-check site; sets [t.overflow] when a send exceeded
    [t.bound] (the explorer prunes such successors). *)

(** {1 Invariants} *)

val transient : state -> bool
(** Protocol activity in flight: any miss/downgrade entry, pending or
    pending-downgrade bit, busy directory or non-empty directory queue.
    Every in-flight coherence message implies such a marker. *)

val check_invariants : state -> string list
(** The {!Shasta_core.Inspect} sweep over the abstract state:
    single-Exclusive, exclusive-implies-rest-invalid, some-valid-copy,
    pending<->miss, pdg<->downgrade-entry, invalid-implies-stamped
    (settled states only), private-never-overstates-node, and after a
    crash no message to or from the dead node. *)

(** {1 Coverage} *)

val all_branches : string list
(** Every branch name a step can mark — the shared handlers' and miss
    paths', the inline checks' and the crash transition's — for the
    dead-branch report. *)

val expected_dead : string list
(** Branches structurally unreachable in the abstraction — one-word
    one-block artifacts plus paths that need message races the
    ordered-delivery discipline forbids in this geometry; listed
    separately by [verify --reach --dead]. *)

val crash_branches : string list
(** The branches only the {!action.Crash} transition can reach; a
    crash-free exploration counts them as expected-dead. *)
