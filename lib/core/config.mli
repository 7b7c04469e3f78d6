(** Machine configuration for a simulated run. *)

type variant =
  | Base  (** Base-Shasta: message passing between all processors *)
  | Smp  (** SMP-Shasta: memory shared within each clustering group *)

type fault =
  | Skip_private_downgrade
      (** a processor handling a downgrade message leaves its private
          state table untouched (the §3.4.3 bug class) *)
  | Skip_flag_stamp
      (** invalid-flag stamping is skipped when a block is surrendered,
          so later flag-based load checks read stale data as valid *)
(** Deliberate protocol faults, strictly for testing the sanitizer and
    the litmus model checker. Never set in a real configuration. *)

type t = private {
  variant : variant;
  nprocs : int;
  procs_per_node : int;  (** physical SMP size (message latency domain) *)
  clustering : int;
      (** logical sharing-domain size; 1 for Base, divides
          [procs_per_node] for Smp so a sharing domain never spans
          physical nodes *)
  line_size : int;
  heap_bytes : int;
  checks_enabled : bool;
      (** disable to measure the original sequential execution time *)
  timing : Timing.t;
  link : Shasta_net.Link.t;
  max_cycles : int;
  seed : int;  (** workload seed, so runs are reproducible *)
  smp_sync : bool;
      (** 5 extension: hierarchical barriers that combine arrivals in
          each node's shared memory and send one message per node *)
  share_directory : bool;
      (** 5 extension: a requester colocated with the home's node
          accesses the directory directly, eliminating the intra-node
          request/reply messages *)
  sanitize : int;
      (** analysis level: 0 off; 1 online invariant sanitizing plus an
          {!Inspect.report} sweep at every barrier; 2 additionally
          enables the happens-before race detector where the harness
          supports it. Defaults to the [SHASTA_SANITIZE] environment
          variable. *)
  fastpath : bool;
      (** enable the fused inline-check fast path (hit checks resolved
          against a single state-table byte, batched per-line checks in
          access programs) with cycle accounting deferred to a
          per-processor accumulator. Simulated results are bit-identical
          either way; off exists so CI can diff fast vs. reference.
          Defaults to the [SHASTA_FASTPATH] environment variable
          (default on; ["0"] disables). *)
  fault : fault option;  (** test-only protocol fault injection *)
}

val create :
  ?variant:variant ->
  ?nprocs:int ->
  ?procs_per_node:int ->
  ?clustering:int ->
  ?line_size:int ->
  ?heap_bytes:int ->
  ?checks_enabled:bool ->
  ?timing:Timing.t ->
  ?link:Shasta_net.Link.t ->
  ?max_cycles:int ->
  ?seed:int ->
  ?smp_sync:bool ->
  ?share_directory:bool ->
  ?sanitize:int ->
  ?shards:int ->
  ?fastpath:bool ->
  ?fault:fault ->
  unit ->
  t
(** Defaults: [Base], 1 processor, 4 per node, clustering 1, 64-byte
    lines, 8 MiB heap, checks enabled. Raises [Invalid_argument] on
    inconsistent combinations (Base with clustering > 1, clustering not
    dividing the node size, non-positive sizes).

    [shards] is kept only so the benchmark under [perfbench/] compiles
    unchanged: it accepts [1] (every run executes on the calling domain)
    and raises [Invalid_argument] on any other value. The next change to
    the benchmark drops it. *)

val env_fastpath : unit -> bool
(** The [SHASTA_FASTPATH] environment variable: ["0"] means off,
    anything else (including unset) means on. The default for
    {!create}'s [?fastpath]; exposed so [shasta_cli report] can record
    the requested value. *)

val nnodes : t -> int
(** Number of coherence nodes (sharing domains). *)

val node_of_proc : t -> int -> int
(** Coherence node of a processor. *)

val procs_of_node : t -> int -> int list
(** Processors of a coherence node, ascending. *)
