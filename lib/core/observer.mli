(** Protocol event observer: the hook surface of the analysis layer.

    An observer is a record of five callbacks installed on a
    {!Machine.t} (see [Machine.observer]) before the parallel phase
    starts:

    - [on_event] receives the protocol's events ({!Event.payload}):
      node and private state-table transitions, pending and
      pending-downgrade flips, miss spans, the §3.4.3 intra-node
      downgrade's ack, done, queue and replay, and lock and barrier
      episodes;
    - [on_send] and [on_recv] bracket a message's network transit and
      hand over the {!Msg.t} itself ([Checkpoint] logs its bytes);
      {!of_events} turns them into [Send]/[Recv] events;
    - [on_load] and [on_store] fire on every application access, with
      unboxed arguments: no event is built for them.

    When no observer is installed every hook site is one load and one
    branch and allocates nothing. Hooks never charge cycles, so
    simulated cycle counts are bit-identical with and without an
    observer. But {e any} installed observer, even one that only counts
    sends (YCSB's per-class message counter), forces every access onto
    the reference path ([Dsm], DESIGN §3g), since the access hooks must
    see each access with its exact clock: a YCSB run never takes the
    fused hit check.

    Every callback carries the virtual cycle of the processor that
    executed the event ([time], or [now]) and identifies that processor
    ([proc], or the message's [src] for a send and [dst] for a
    receive). Because each processor's execution is deterministic in
    virtual time, the stream attributed to one executing processor is a
    pure function of the program and configuration, independent of the
    host scheduler (see {!Event}). *)

type t = {
  on_event : Event.t -> unit;
  on_send : src:int -> dst:int -> now:int -> Msg.t -> unit;
      (** a message entered the network ([src <> dst]; inline
          same-processor delivery generates no send/recv pair) *)
  on_recv : src:int -> dst:int -> now:int -> Msg.t -> unit;
      (** [dst] polled a message off the network, about to handle it;
          replays of queued messages do not re-fire this *)
  on_load : proc:int -> addr:int -> len:int -> now:int -> unit;
      (** an application load retired (after any miss handling) *)
  on_store : proc:int -> addr:int -> len:int -> now:int -> unit;
      (** an application store was issued through the protocol *)
}

val nil : t
(** Every callback is a no-op; build observers with [{ nil with ... }]. *)

val seq : t -> t -> t
(** [seq a b] runs [a]'s callback then [b]'s at every event. *)

val wants_events : t -> bool
(** Whether [on_event] is not [nil]'s. The protocol builds no event for
    an observer that does not want them (YCSB's message counter), also
    after {!seq} composed it with another such observer. *)

val of_events : (Event.t -> unit) -> t
(** [of_events f] hands [f] every protocol event and every message as
    a [Send] (attributed to the sender) or [Recv] (attributed to the
    receiver) event; the access hooks are [nil]'s. *)
