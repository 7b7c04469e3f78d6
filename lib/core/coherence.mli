(** The per-block coherence protocol (§3.3–3.4), written once: the
    message handlers and what an access decides after its inline check
    fails.

    Every handler runs on one processor and concerns one block: the
    directory service at the home (requests, the busy queue, sharing
    write-backs and ownership acks), the owner and sharer side
    (forwards and invalidations), the SMP downgrade of §3.4.3 with its
    deferred action and replays, and the requester side (data and
    upgrade replies, invalidation acks). The handlers fix the protocol's
    order of steps: private entries drop before the node entry, the
    data snapshot is taken before the send, and messages that arrive
    during an open downgrade queue on it.

    The miss paths ({!Make.load_miss}, {!Make.store_miss}) take over
    where an inline check failed: false misses, private-state upgrades,
    accesses served by the pre-downgrade state, stores merging into a
    pending miss entry, and fetches. They never wait; they return what
    the access must wait for, and the caller stalls and retries.

    All of it is a functor over a {!SUBSTRATE}, one processor's view of
    one block. {!Protocol} instantiates it over the simulated machine,
    where the substrate charges cycles, fires observer hooks, records
    statistics and moves data. [Shasta_verify.Model] instantiates it
    over its abstract 2-node state, where the substrate emits
    conformance labels and branch marks, and keeps only its two inline
    checks. So the model checker explores the code that the simulator
    runs. *)

(** A cycle charge. Only the simulator charges; the model ignores it. *)
type cost =
  | Handler
      (** handler entry of a message sent to the handling processor
          itself or replayed from a queue; an arrived message's entry is
          charged by the caller of {!Make.handle} *)
  | Node_lock  (** the node's protocol lock, SMP only *)
  | Home  (** directory service *)
  | Downgrade_start
  | Downgrade_send  (** one per sibling downgrade message *)
  | Downgrade_handler
  | Data_apply
  | Miss_setup
  | Protocol_entry  (** a miss path's entry after a failed inline check *)
  | Private_upgrade
      (** a miss the node's copy serves: a private-state upgrade or an
          access to the pre-downgrade state; charged as [Other] time *)

(** What the simulator observes or counts; the model ignores it. *)
type note =
  | Downgrade_queued of int * Msg.t
      (** (source, message) parked on the open downgrade *)
  | Downgrade_ack  (** a downgrade message lowered this processor *)
  | Downgrade_done  (** the downgrade's deferred action starts *)
  | Downgrade_replay of int * Msg.t
  | Downgrades_sent of int  (** a downgrade started: sibling messages *)
  | Miss_served of { kind : Msg.req_kind; three_hop : bool; start : int }
      (** a reply completed the data phase of a miss issued at [start] *)
  | False_miss  (** a failed load check found the node's copy valid *)
  | Private_upgrade  (** a miss path raised this processor's private entry *)

module type VIEW = sig
  type t
  (** A processor's view of one block: what the handlers and crash
      recovery ({!Recovery}) both read and write. *)

  val pid : t -> int
  val block : t -> int

  val home : t -> int
  (** The block's home processor. *)

  val node_of : t -> int -> int
  val node_procs : t -> int list
  (** The processors of this processor's node, ascending. *)

  (** {2 The node's shared table entry} *)

  val base : t -> Shasta_mem.State_table.base
  val set_base : t -> Shasta_mem.State_table.base -> unit
  val set_pending : t -> bool -> unit

  (** {2 Private table entries of the node's processors} *)

  val private_state : t -> int -> Shasta_mem.State_table.base
  val raise_private : t -> int -> Shasta_mem.State_table.base -> unit
  (** Raise processor [q]'s entry to the state; never lowers it. *)

  (** {2 Data and entries} *)

  val install : t -> Miss_table.entry -> Bytes.t -> unit
  (** Write reply data into the node's copy around the entry's merged
      stores. *)

  val dir : t -> Directory.entry
  (** The block's directory entry at its home. *)

  val miss : t -> Miss_table.entry option

  val open_miss : t -> Msg.req_kind -> Miss_table.entry
  (** Add a miss entry for the block, requested by this processor; none
      is outstanding. *)

  val retire : t -> Miss_table.entry -> unit
  (** Remove a completed miss entry. *)

  val downgrade : t -> Downgrade.entry option

  (** {2 Effects} *)

  val transmit : t -> int -> Msg.t -> unit
  (** Send to another processor, or queue a message to this one. *)

  val mark : t -> string -> unit
  (** A named branch was taken (the model's coverage report). *)
end

module type SUBSTRATE = sig
  include VIEW

  val fault : t -> Config.fault option
  val pending : t -> bool
  val pending_downgrade : t -> bool
  val set_pending_downgrade : t -> bool -> unit

  val check_state : t -> Shasta_mem.State_table.base
  (** The entry this processor's inline check reads: its private entry
      under SMP, the node entry under Base. *)

  val lower_private : t -> int -> Shasta_mem.State_table.base -> unit
  (** Lower processor [q]'s entry to the state; never raises it. *)

  val stamp : t -> unit
  (** Write the invalid-flag pattern over the node's copy. *)

  val snapshot : t -> Bytes.t
  (** The node's copy, for a data reply. *)

  type write
  (** What a store writes. *)

  val write : t -> write -> unit
  (** Apply a store to the node's copy. *)

  val store_slot_free : t -> bool
  (** Whether this processor may add an outstanding store. *)

  val record_store : t -> Miss_table.entry -> off:int -> len:int -> unit
  (** Record this processor's store of [len] bytes at block offset [off]
      in the entry, taking a store slot unless it holds one there. *)

  val share_directory : t -> bool
  (** The share_directory extension: a processor on the home's node
      runs the directory service itself instead of messaging the home. *)

  val open_downgrade :
    t ->
    target:Shasta_mem.State_table.base ->
    deferred:Downgrade.deferred ->
    remaining:int ->
    unit

  val close_downgrade : t -> Downgrade.entry -> unit
  val charge : t -> cost -> unit
  val note : t -> note -> unit

  val violation : t -> string -> 'a
  (** An impossible configuration was reached. *)
end

module Make (S : SUBSTRATE) : sig
  val handle : S.t -> src:int -> Msg.t -> unit
  (** Handle a coherence message that arrived from [src] (the caller has
      charged the handler entry). A sync message is a violation. *)

  val send : S.t -> int -> Msg.t -> unit
  (** Send a coherence message. A message to the sending processor
      itself is handled inline (the requester-is-home path of
      Base-Shasta). *)

  val fetch : S.t -> Msg.req_kind -> Miss_table.entry
  (** Open a miss entry, set the pending bit, charge the miss setup and
      send the request home, taking the share_directory shortcut. *)

  val load_miss : S.t -> [ `Done | `Data of Miss_table.entry | `Retire ]
  (** A load check failed. [`Done]: the node's copy is valid, so the
      checked bytes are application data (a false miss, possibly after
      a private upgrade). Otherwise wait for the entry's data or for the
      block's entry to retire, then re-run the check. *)

  val store_miss :
    S.t -> off:int -> len:int -> S.write -> [ `Done | `Retire | `Slot ]
  (** A store check failed for [len] bytes at block offset [off].
      [`Done]: the store was applied (to an exclusive copy, the
      pre-downgrade state, or around a pending miss entry that will
      merge it). Otherwise wait for the block's entry to retire or for
      a free store slot, then retry. A store that opens an entry lands
      before its request goes out. *)
end

(** {1 Crash recovery}

    The per-block decisions of node-crash recovery, written once as a
    second functor. [Shasta_recover.Recover] runs them over the
    simulated machine and [Shasta_verify.Model] over its abstract
    state, so the model checker explores the recovery that a simulated
    crash runs. What a crash does beyond one block (killing the node's
    processors, purging its traffic, scrubbing it, re-homing, lock and
    barrier surgery) stays with the caller. *)

module type RECOVERY_SUBSTRATE = sig
  include VIEW

  val restore : t -> Bytes.t option -> unit
  (** Write recovered bytes over the node's whole copy; [None]
      re-initializes it zeroed, as at allocation. *)
end

module Recovery (S : RECOVERY_SUBSTRATE) : sig
  val affected :
    dead:(int -> bool) ->
    live:S.t list ->
    msgs:(int * int * Msg.t) list ->
    dir:Directory.entry option ->
    S.t ->
    bool
  (** Whether a crash that killed the processors [dead] affects the
      block, given a view of its home before re-homing: its home died; a
      message about it in flight at the crash ([msgs], as (source,
      destination, message)) has a dead endpoint or names a dead
      requester or new sharer; its directory entry, if it has one, names
      a dead owner, sharer or queued requester; or a downgrade or miss
      entry of a surviving node ([live], one view per node) serves or
      queues a dead processor. Recovery leaves every other block
      untouched. *)

  val cancels : Msg.t -> bool
  (** Whether recovery cancels an in-flight message about an affected
      block: every one but an intra-node [Downgrade], whose countdown a
      surviving downgrade entry still needs. The rebuild regenerates the
      rest. *)

  val unsend : S.t -> Msg.t -> unit
  (** Undo a cancelled message at its sender. An exclusive data reply
      carried the sender's copy (the sender stamped its own when it sent
      it), so the bytes are restored there and the sender becomes the
      block's Exclusive owner. *)

  val rebuild :
    live:S.t list ->
    at:(int -> S.t) ->
    data:(unit -> Bytes.t option) ->
    S.t ->
    [ `Rebuilt | `Lost ]
  (** Rebuild an affected block at its (re-homed) home, given the home's
      view, after the cancellations. [live] has one view per surviving
      node, ascending; [at p] is processor [p]'s view.
      - Each surviving miss entry restarts as "request sent, nothing
        received": queued forwards and acknowledgement counts are
        dropped, and an entry whose data had arrived becomes an
        [Upgrade]. Each surviving downgrade will complete locally
        ([Recovered]).
      - The directory entry is rebuilt from the survivors' effective
        states (a node mid-downgrade counts at its target). A node is
        represented by its miss entry's requester, else by its highest
        private holder (lowest pid on ties). The sharers are the valid
        nodes' representatives, and the owner is the Exclusive node's,
        else the home node's, else the first valid node's.
      - With no valid copy left, a survivor mid-downgrade to Invalid
        still holds the bytes: its deferred action becomes an exclusive
        reply to the home node's miss entry, which the home opens if
        there is none. Otherwise every copy died. [data ()] (a
        checkpoint's bytes, read only then) restores the block Exclusive
        at the home, completing the home node's miss entry. With no data
        the block is re-initialized zeroed, unless a surviving node has a
        miss outstanding for it: then the result is [`Lost].
      - Last, each miss entry still open re-requests the block from the
        home: a queued send from its requester, never handled inline. *)
end
