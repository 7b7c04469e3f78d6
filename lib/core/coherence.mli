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

module type SUBSTRATE = sig
  type t
  (** The processor handling a message or an access, and the block it
      concerns. *)

  val pid : t -> int
  val block : t -> int

  val home : t -> int
  (** The block's home processor. *)

  val node_of : t -> int -> int
  val node_procs : t -> int list
  (** The processors of this processor's node, ascending. *)

  val fault : t -> Config.fault option

  (** {2 The node's shared table entry} *)

  val base : t -> Shasta_mem.State_table.base
  val set_base : t -> Shasta_mem.State_table.base -> unit
  val pending : t -> bool
  val set_pending : t -> bool -> unit
  val pending_downgrade : t -> bool
  val set_pending_downgrade : t -> bool -> unit

  (** {2 Private table entries of the node's processors} *)

  val check_state : t -> Shasta_mem.State_table.base
  (** The entry this processor's inline check reads: its private entry
      under SMP, the node entry under Base. *)

  val private_state : t -> int -> Shasta_mem.State_table.base
  val raise_private : t -> int -> Shasta_mem.State_table.base -> unit
  (** Raise processor [q]'s entry to the state; never lowers it. *)

  val lower_private : t -> int -> Shasta_mem.State_table.base -> unit
  (** Lower processor [q]'s entry to the state; never raises it. *)

  (** {2 Data} *)

  val stamp : t -> unit
  (** Write the invalid-flag pattern over the node's copy. *)

  val snapshot : t -> Bytes.t
  (** The node's copy, for a data reply. *)

  val install : t -> Miss_table.entry -> Bytes.t -> unit
  (** Write reply data into the node's copy around the entry's merged
      stores. *)

  type write
  (** What a store writes. *)

  val write : t -> write -> unit
  (** Apply a store to the node's copy. *)

  (** {2 Entries} *)

  val dir : t -> Directory.entry
  (** The block's directory entry at its home. *)

  val miss : t -> Miss_table.entry option

  val open_miss : t -> Msg.req_kind -> Miss_table.entry
  (** Add a miss entry for the block; none is outstanding. *)

  val retire : t -> Miss_table.entry -> unit
  (** Remove a completed miss entry. *)

  val store_slot_free : t -> bool
  (** Whether this processor may add an outstanding store. *)

  val record_store : t -> Miss_table.entry -> off:int -> len:int -> unit
  (** Record this processor's store of [len] bytes at block offset [off]
      in the entry, taking a store slot unless it holds one there. *)

  val share_directory : t -> bool
  (** The share_directory extension: a processor on the home's node
      runs the directory service itself instead of messaging the home. *)

  val downgrade : t -> Downgrade.entry option

  val open_downgrade :
    t ->
    target:Shasta_mem.State_table.base ->
    deferred:Downgrade.deferred ->
    remaining:int ->
    unit

  val close_downgrade : t -> Downgrade.entry -> unit

  (** {2 Effects} *)

  val transmit : t -> int -> Msg.t -> unit
  (** Send to another processor. *)

  val charge : t -> cost -> unit
  val note : t -> note -> unit

  val mark : t -> string -> unit
  (** A named branch was taken (the model's coverage report). *)

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
