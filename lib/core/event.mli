(** The protocol's observable events: one vocabulary for the
    observer ({!Observer.t}'s [on_event]), the flight recorder, the
    metrics, the sanitizer, the race detector, the lock-order graph and
    the model conformance check.

    One event records one protocol occurrence, attributed to the
    processor that {e executed} it ([proc]) at that processor's virtual
    cycle ([time]). A node-level payload names the entity that changed
    ([node], [target]), which need not be the executor. Because each
    processor's execution is deterministic in virtual time, the
    sub-stream of any one [proc] is a pure function of the program and
    configuration, independent of the host scheduler; the merged stream
    (ordered by time, then proc, then per-proc emission order) is
    therefore a scheduler-invariant oracle — see [Recorder.events].

    Events fire {e after} the mutation they describe has been applied
    (a state event observes the new table contents), except [Send] and
    [Recv], which bracket a message's network transit, and
    [Barrier_arrive], which fires when the processor commits to the
    barrier episode [epoch] (before it stalls). *)

type base = Shasta_mem.State_table.base

type payload =
  | State of { node : int; block : int; from_ : base; to_ : base }
      (** a node's shared state table changed for a whole block *)
  | Private of { target : int; block : int; from_ : base; to_ : base }
      (** processor [target]'s private table changed for a whole block
          (SMP-Shasta; only on an actual change). A downgrade handler
          lowers a {e sibling}'s entry, so [target] and the event's
          [proc] can differ. *)
  | Pending of { node : int; block : int; set : bool }
      (** the pending (miss outstanding) marker toggled *)
  | Pending_downgrade of { node : int; block : int; set : bool }
      (** the pending-downgrade marker toggled *)
  | Send of { dst : int; kind : int; size : int; block : int }
      (** a message entered the network ([proc] is the sender, never
          [dst]; inline same-processor delivery sends nothing). [kind]
          indexes {!Msg.tag_names}; [size] is the wire size in bytes;
          [block] is [-1] for sync traffic. *)
  | Recv of { src : int; kind : int; size : int; block : int }
      (** a message was polled off the network by [proc], about to be
          handled; replays of messages queued on a miss entry, a busy
          directory entry or a downgrade entry do not recur as [Recv] *)
  | Miss_start of { block : int; kind : Msg.req_kind }
      (** a miss entry was allocated: the node had no request in flight
          for [block] and [proc]'s access created one (sibling accesses
          that merge into an existing entry do not) *)
  | Miss_end of { block : int; kind : Msg.req_kind; start : int }
      (** the miss entry allocated at cycle [start] retired (data
          applied and all acks in). [kind] is the entry's final kind: a
          chained read-then-upgrade is one span that reports [Readex]. *)
  | Downgrade_ack of { block : int }
      (** [proc] handled a downgrade message (its private entry is
          already lowered) *)
  | Downgrade_done of { block : int }
      (** the deferred protocol action of a node downgrade is about to
          run on [proc] (the processor that handled the last downgrade
          message, or the initiator when no sibling needed one) *)
  | Downgrade_queued of { block : int; src : int; kind : int }
      (** a message from [src] arriving during a pending downgrade was
          queued on the entry *)
  | Downgrade_replay of { block : int; src : int; kind : int }
      (** a queued message is replayed after the downgrade completed
          (in queue order) *)
  | Lock_acquired of { lock : int }
  | Lock_released of { lock : int }
  | Barrier_arrive of { barrier : int; epoch : int }
  | Barrier_leave of { barrier : int; epoch : int }

type t = { proc : int; time : int; payload : payload }

val classes : string list
(** Every {!class_name}, in constructor order: the vocabulary of the
    [--kind] filter. *)

val class_name : t -> string
(** Payload constructor as a lowercase identifier ([state], [send],
    [miss_end], ...). *)

val block_of : t -> int option

val base_name : base -> string
val req_kind_name : Msg.req_kind -> string
val msg_kind_name : int -> string

val describe : t -> string
(** Payload rendered without the [proc]/[time] prefix. *)

val to_string : t -> string
(** Flight-recorder line: ["[p3 @1042] send data_reply -> p0 80B ..."]. *)

type filter = {
  procs : int list;  (** empty = all *)
  blocks : int list;  (** block base addresses; empty = all *)
  kinds : string list;  (** {!class_name} values; empty = all *)
  from_ : int option;  (** inclusive lower time bound *)
  upto : int option;  (** inclusive upper time bound *)
}

val no_filter : filter
val matches : filter -> t -> bool
