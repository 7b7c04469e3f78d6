(** Protocol event observer: the hook surface of the analysis layer.

    An observer is a record of callbacks installed on a {!Machine.t}
    (see [Machine.observer]) before the parallel phase starts. The
    protocol and the Dsm access layer invoke each callback at the
    corresponding event; when no observer is installed every hook site
    compiles to a single [match] on [None], so an uninstrumented run
    stays within measurement noise of the unhooked code and its
    simulated cycle counts are bit-identical (hooks never charge
    cycles).

    Events fire {e after} the mutation they describe has been applied
    (a state hook observes the new table contents), except
    [on_send]/[on_recv] which bracket a message's network transit, and
    [on_barrier_arrive], which fires when the processor commits to the
    barrier episode [epoch] (before it stalls).

    Every hook carries [now] (the virtual cycle of the processor that
    executed the event) and identifies that executing processor — as
    [by] on the node-level hooks, whose [node]/[proc] argument names the
    entity that changed rather than the actor, and as [proc]/[src]/[dst]
    elsewhere. Because each processor's execution is deterministic in
    virtual time, the stream of events attributed to one executing
    processor is a pure function of the program and configuration,
    independent of the host scheduler — which makes per-processor event
    streams usable as a determinism oracle (see {!Shasta_trace}). *)

type base = Shasta_mem.State_table.base

type t = {
  on_state :
    by:int -> node:int -> block:int -> from_:base -> to_:base -> now:int -> unit;
      (** a node's shared state table changed for a whole block;
          [by] is the processor executing the transition *)
  on_private :
    by:int -> proc:int -> block:int -> from_:base -> to_:base -> now:int -> unit;
      (** processor [proc]'s private state table changed for a whole
          block (SMP-Shasta; fires only on an actual change). [by] is
          the executing processor — a downgrade handler lowers a
          {e sibling}'s entry, so [by] and [proc] can differ. *)
  on_pending : by:int -> node:int -> block:int -> set:bool -> now:int -> unit;
      (** the pending (miss outstanding) marker toggled *)
  on_pending_downgrade :
    by:int -> node:int -> block:int -> set:bool -> now:int -> unit;
      (** the pending-downgrade marker toggled *)
  on_send : src:int -> dst:int -> now:int -> Msg.t -> unit;
      (** a message entered the network ([src <> dst]; inline
          same-processor delivery generates no send/recv pair) *)
  on_recv : src:int -> dst:int -> now:int -> Msg.t -> unit;
      (** a message was polled off the network by [dst], about to be
          handled; replays of messages queued on a miss entry, a busy
          directory entry or a downgrade entry do not re-fire this *)
  on_miss_start : proc:int -> block:int -> kind:Msg.req_kind -> now:int -> unit;
      (** a miss entry was allocated: the node had no request in flight
          for [block] and [proc]'s access created one (sibling accesses
          that merge into an existing entry do not fire this) *)
  on_miss_end :
    proc:int -> block:int -> kind:Msg.req_kind -> start:int -> now:int -> unit;
      (** the miss entry allocated at cycle [start] retired on [proc]
          (data applied and all acks in). [kind] is the entry's final
          kind — an upgrade chained onto a read entry reports [Readex],
          and the whole chain is one miss span. *)
  on_downgrade_ack : proc:int -> block:int -> now:int -> unit;
      (** a sibling handled a downgrade message (its private entry is
          already lowered) *)
  on_downgrade_done : proc:int -> block:int -> now:int -> unit;
      (** the deferred protocol action of a node downgrade is about to
          run on [proc] (the processor that handled the last downgrade
          message, or the initiator when no sibling needed one) *)
  on_downgrade_queued :
    proc:int -> block:int -> src:int -> now:int -> Msg.t -> unit;
      (** a message arriving during a pending downgrade was queued on
          the entry *)
  on_downgrade_replay :
    proc:int -> block:int -> src:int -> now:int -> Msg.t -> unit;
      (** a queued message is being replayed after the downgrade
          completed (fires in replay order) *)
  on_load : proc:int -> addr:int -> len:int -> now:int -> unit;
      (** an application load retired (after any miss handling) *)
  on_store : proc:int -> addr:int -> len:int -> now:int -> unit;
      (** an application store was issued through the protocol *)
  on_lock_acquired : proc:int -> lock:int -> now:int -> unit;
  on_lock_released : proc:int -> lock:int -> now:int -> unit;
  on_barrier_arrive : proc:int -> barrier:int -> epoch:int -> now:int -> unit;
  on_barrier_leave : proc:int -> barrier:int -> epoch:int -> now:int -> unit;
}

val nil : t
(** Every callback is a no-op; build observers with [{ nil with ... }]. *)

val seq : t -> t -> t
(** [seq a b] runs [a]'s callback then [b]'s at every event. *)
