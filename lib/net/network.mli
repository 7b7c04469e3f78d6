(** Point-to-point message transport with arrival timestamps.

    Each destination processor owns a queue ordered by arrival time (ties
    broken by a global send sequence number, which also keeps delivery
    deterministic). Messages between the same (src, dst) pair are forced
    to stay FIFO even when a small message is sent after a large one —
    both the Memory Channel and the intra-node shared-memory queues of
    the prototype deliver in order. *)

type 'a msg = { arrival : int; sent : int; src : int; seq : int; payload : 'a }
(** A queued message: ordered by [(arrival, sent, src, seq)] — arrival
    time, then send time, then sender id, then the sender's send
    sequence number. [seq] is only compared between messages of the same
    sender, where it follows program order; the tie-break chain is thus
    a function of virtual time and sender identity only, so delivery
    order is independent of how the scheduler interleaves processors in
    host time (required by run-ahead). *)

(** Binary min-heap on [(arrival, sent, src, seq)]; exposed for unit
    tests. The read-only probes ([size], [min_arrival]) do not
    allocate. *)
module Heap : sig
  type 'a t

  val create : unit -> 'a t
  val size : 'a t -> int
  val push : 'a t -> 'a msg -> unit

  val min_arrival : 'a t -> int
  (** Arrival time of the earliest message, [max_int] when empty. *)

  val peek : 'a t -> 'a msg option
  val pop : 'a t -> 'a msg option

  val pop_exn : 'a t -> 'a msg
  (** Remove and return the earliest message; the heap must be
      non-empty. *)
end

type 'a t

val create : Topology.t -> Link.t -> 'a t

val send : 'a t -> src:int -> dst:int -> now:int -> size:int -> 'a -> unit
(** Enqueue a message carrying [size] payload bytes; its arrival time is
    [now] plus the link transfer time (at least one cycle after the
    previous message on the same (src,dst) pair). *)

val poll : 'a t -> dst:int -> now:int -> (int * 'a) option
(** Pop the earliest message destined to [dst] whose arrival time is at
    most [now]; result carries the sender. *)

val peek_arrival : 'a t -> dst:int -> int option
(** Arrival time of the earliest queued message for [dst] (whether or not
    it has arrived yet). *)

val earliest_arrival : 'a t -> dst:int -> int
(** Like {!peek_arrival} but allocation-free: [max_int] when the queue is
    empty. Fed to the engine as the run-ahead horizon hint. *)

val queued : 'a t -> dst:int -> int
(** Number of queued (in-flight or arrived) messages for [dst]. *)

(** {1 Crash quarantine}

    When a node crashes, its processors are marked dead: subsequent
    sends from or to a dead processor are silently discarded (one extra
    branch on the send path, taken only once some processor has died),
    and {!purge_dead} discards the in-flight messages that had a dead
    endpoint at the instant of the crash. Recovery code uses
    {!iter_queued} to analyse the surviving in-flight traffic. *)

val mark_dead : 'a t -> int -> unit
(** Quarantine a processor: all its future traffic (either direction)
    is dropped. *)

val is_dead : 'a t -> int -> bool

val purge_dead : 'a t -> int
(** Discard every queued message whose source or destination is dead;
    returns the number discarded. *)

val dropped : 'a t -> int
(** Total messages discarded by quarantine (sends suppressed plus
    in-flight purges). *)

val purge_where :
  'a t -> (src:int -> dst:int -> 'a -> bool) -> (int * int * 'a) list
(** Discard every queued message for which the predicate holds; returns
    the dropped [(src, dst, payload)] triples sorted by their delivery
    stamps (the order they would have been handled in). Used by crash
    recovery to cancel live-live in-flight traffic naming an affected
    block. *)

val iter_queued : 'a t -> dst:int -> (src:int -> arrival:int -> 'a -> unit) -> unit
(** Iterate over the messages currently queued for [dst] (arrived or
    not), in unspecified order. *)

val sent_local : 'a t -> int
(** Count of intra-node messages sent so far. *)

val sent_remote : 'a t -> int
(** Count of inter-node messages sent so far. *)

val bytes_remote : 'a t -> int
(** Total payload bytes shipped between nodes. *)
