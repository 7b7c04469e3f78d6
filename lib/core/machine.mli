(** Global state of a simulated cluster run.

    A [t] bundles the configuration, interconnect, per-coherence-node
    memory images / shared state tables / miss and downgrade tables,
    per-processor private state tables and directories, synchronization
    manager state, and statistics. It is created once per run; shared
    data, locks and barriers are allocated in a setup phase before the
    processors start. *)

type node_state = {
  image : Shasta_mem.Image.t;
  table : Shasta_mem.State_table.t;  (** the node's shared state table *)
  misses : Miss_table.t;
  downgrades : Downgrade.t;
  deferred_flags : (int, unit) Hashtbl.t;
      (** blocks invalidated during an active batch whose flag write is
          deferred to batch end (§3.4.4) *)
  batch_lines : (int, int) Hashtbl.t;  (** line -> active batch count *)
  batch_wranges : (int, (int * int) list) Hashtbl.t;
      (** block -> block-relative ranges being written raw by active
          batches; data replies merge around them, exactly as they merge
          around non-blocking-store ranges *)
  mutable downgrade_epoch : int;
      (** bumped whenever any block of this node is downgraded; lets a
          batch detect that a block it wrote may have churned mid-batch
          and must be re-serialized through the store path *)
}

type lock_state = {
  mutable held : bool;
  mutable holder : int;
  mutable lock_queue : int list;  (** waiting processors, newest first *)
}

type barrier_state = {
  mutable arrived : int;
  mutable generation : int;
  mutable arrived_procs : int list;
      (** pids (or, hierarchical, node representatives) counted in
          [arrived] — crash recovery subtracts dead arrivals *)
}

type proc_state = {
  pid : int;
  node : int;  (** coherence node *)
  stats : Stats.t;
  prng : Shasta_util.Prng.t;
  mutable engine : Shasta_sim.Engine.proc option;
  mutable category : Stats.category;
  mutable ops_since_poll : int;
  mutable outstanding_stores : int;
  granted : (int, unit) Hashtbl.t;  (** lock grants not yet consumed *)
  barrier_seen : (int, int) Hashtbl.t;  (** barrier id -> generation *)
  mutable finished : bool;
  mutable app_finish_cycles : int;
  mutable waiting_lock : int option;
      (** lock requested but not yet granted; crash recovery re-issues
          or re-grants for stranded waiters *)
  mutable waiting_barrier : int option;
      (** barrier arrived at but not yet released from; crash recovery
          re-issues arrivals or re-sends releases lost with a dead
          barrier manager *)
}

type t = {
  cfg : Config.t;
  topo : Shasta_net.Topology.t;
  net : Msg.t Shasta_net.Network.t;
  layout : Shasta_mem.Layout.t;
  blocks : Shasta_mem.Block_map.t;
  homes : Shasta_mem.Home_map.t;
  heap : Shasta_mem.Alloc.t;
  nodes : node_state array;
  privates : Shasta_mem.State_table.t array;  (** per processor *)
  dirs : Directory.t array;  (** per processor (home side) *)
  locks : (int, lock_state) Hashtbl.t;
  barriers : (int, barrier_state) Hashtbl.t;
  barrier_local : (int, barrier_state) Hashtbl.t array;
      (** per-coherence-node combining state for the hierarchical
          barrier extension, keyed by barrier id. *)
  procs : proc_state array;
  mutable next_lock : int;
  mutable next_barrier : int;
  mutable observer : Observer.t option;
      (** analysis hooks; [None] (the default) makes every hook site a
          no-op. Install before the parallel phase starts. *)
  dead : bool array;
      (** per-processor crash flags; mutated only inside the atomic
          crash-and-recover surgery of [Shasta_recover.Crash] *)
  dead_nodes : bool array;  (** per-coherence-node crash flags *)
  mutable has_dead : bool;
  mutable crashes : int;  (** node crashes executed on this machine *)
  mutable recovery_cycles : int;
      (** simulated cycles charged to recovery traffic (message pauses
          of re-injected requests) *)
}

val create : Config.t -> t

val add_observer : t -> Observer.t -> unit
(** Install an observer, composing ({!Observer.seq}) with any already
    installed one. *)

val node_of : t -> int -> int
(** Coherence node of a processor. *)

val earliest_arrival : t -> int -> int
(** Earliest in-flight message arrival time for a processor, [max_int]
    when its queue is empty. Threaded into {!Shasta_sim.Engine.run} as
    the run-ahead horizon hint; allocation-free. *)

val home_of_block : t -> int -> int
(** Home processor of the block at the given base address. *)

val block_base : t -> int -> int
(** Base address of the block containing an address. *)

val block_size : t -> int -> int
(** Byte size of the block containing an address. *)

val alloc : t -> ?block_size:int -> ?home:int -> int -> int
(** Allocate shared memory (setup phase). The home's node starts with an
    exclusive, zero-initialized copy; all other nodes start invalid with
    the flag pattern stamped in. [home] pins every page of the object;
    because homes live at page granularity, raises [Invalid_argument] if
    the allocation starts mid-page on a page whose current home differs
    from [home] — pinning would silently re-home the tail of the
    previous allocation sharing that page and orphan its directory
    entries. (Packing several objects onto one page pinned to the {e
    same} home is idempotent and allowed.) Pad the preceding allocation
    to a page multiple, or allocate the pinned object first. *)

val place : t -> addr:int -> len:int -> proc:int -> unit
(** Re-home an address range (setup phase only): pins the page-aligned
    envelope of the range to [proc] and re-establishes the initial
    exclusive (zeroed) copies there. Initial data must be poked after
    placement. *)

val alloc_lock : t -> int
val alloc_barrier : t -> int

val lock_home : t -> int -> int
val barrier_home : t -> int -> int
(** Manager processor for a lock/barrier id: round-robin by id, failing
    over to the next live pid once a crash has happened. *)

val live_procs : t -> int
(** Number of processors not marked dead. *)

val live_nodes : t -> int
(** Number of coherence nodes not marked dead. *)

val quiescent : t -> bool
(** No queued or in-flight messages, no outstanding misses, downgrades,
    or busy directory entries — used to drain the run after all
    application code has finished. *)

val parallel_cycles : t -> int
(** Maximum over processors of the cycle count at which the application
    body returned. *)
