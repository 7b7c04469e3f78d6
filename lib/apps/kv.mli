(** DSM-backed concurrent hash table — the tenth app ("kv").

    A fixed-geometry open hash table living entirely in simulated shared
    memory: [nbuckets] buckets, each a contiguous run of 8-byte cells
    [count; key0; val0; key1; val1; ...] with capacity [bcap] slots, one
    {!Shasta_core.Dsm} lock per bucket. Every cell is a float (keys are
    small integers, exactly representable), so the probe sequences of
    get/put/rmw are checked {!Shasta_core.Dsm.Prog} kernels when the
    layout is static (no inserts) — the YCSB harness' default path.

    Two access layers:
    - {e primitives} ([probe_in], [read_slot], [write_slot],
      [append_in]) that assume the caller holds the bucket's lock — the
      YCSB harness composes these with its own oracle bookkeeping inside
      the critical section;
    - a registered {!App.maker} ([instance]) that drives a mixed
      get/put/rmw/scan workload from the per-processor PRNG and verifies
      against a host-side shadow copy updated under the same locks (a
      per-key sequential-consistency oracle: the final value of every
      key must be the last write in lock order). *)

module Dsm := Shasta_core.Dsm

type t

type plan = { nbuckets : int; bcap : int; bytes : int }
(** Table geometry, computable before a machine exists (for
    [App.heap_bytes]): [bcap] is the deepest preload bucket plus
    [slack] spare slots for runtime inserts; [bytes] the shared-heap
    footprint of the bucket region. *)

val plan : ?slack:int -> nbuckets:int -> records:int -> unit -> plan
(** Deterministic in (nbuckets, records): replays the preload hash
    assignment host-side. Default [slack] 2. *)

val create :
  Dsm.handle ->
  ?block_size:int ->
  ?slack:int ->
  nbuckets:int ->
  records:int ->
  extra_keys:int ->
  value0:(int -> float) ->
  unit ->
  t
(** Allocate the bucket region and per-bucket locks, preload keys
    [0 .. records-1] (key [k] born with [value0 k] at its home) and
    build the host-side key -> slot index. [extra_keys] reserves index
    room for runtime [append_in] keys [records .. records+extra_keys-1].
    Setup phase only. *)

val records : t -> int
val nbuckets : t -> int
val bcap : t -> int

val bucket_of : t -> int -> int
(** Home bucket of a key (a SplitMix64-style finalizer mod nbuckets). *)

val slot_of : t -> int -> int
(** Slot of a preloaded (or successfully appended) key; [-1] if absent.
    Host-side index — reading it models no simulated work. *)

val charge_hash : t -> Dsm.ctx -> unit
(** Model the key-hash computation (a fixed handful of cycles). Both
    the primitive and the kernel paths charge it once per probe. *)

val lock : t -> Dsm.ctx -> int -> unit
val unlock : t -> Dsm.ctx -> int -> unit

(** {1 In-bucket primitives}

    All assume the caller holds [lock t ctx bucket]. Their simulated
    access sequences are the contract the kernels replicate: a probe
    loads the bucket count, then key cells [0..s] in order. *)

val probe_in : t -> Dsm.ctx -> int -> [ `Found of int | `Absent of int ]
(** Probe for a key: [`Found slot], or [`Absent count] after loading
    all [count] key cells (the absence proof an insert needs). *)

val read_slot : t -> Dsm.ctx -> bucket:int -> slot:int -> float
val write_slot : t -> Dsm.ctx -> bucket:int -> slot:int -> float -> unit

val append_in : t -> Dsm.ctx -> key:int -> float -> int option
(** Insert after an [`Absent] probe: stores key and value cells, bumps
    the count, records the slot in the host index. [None] when the
    bucket is full (the caller counts a dropped insert — deterministic,
    never fatal). *)

val appended : t -> int array
(** Per-bucket count of successful [append_in]s (host bookkeeping for
    final-state verification). *)

val preloaded : t -> int array
(** Per-bucket preload occupancy, so a final count cell must equal
    [preloaded.(b) + appended.(b)]. *)

(** {1 Kernels}

    Checked kernels equivalent to probe+get / probe+put / probe+rmw on
    a key living at slot [s] (index [s] of each array): load count,
    load keys [0..s], then read the value cell / store [aux.(0)] to it /
    add [aux.(0)] into it. The get kernel also deposits the loaded
    value in [aux.(1)] so the caller can oracle-check reads. Valid only
    while the layout is static (no concurrent inserts). Built once per
    table; every processor may share them. *)

val progs_get : t -> Dsm.Prog.t array
val progs_put : t -> Dsm.Prog.t array
val progs_rmw : t -> Dsm.Prog.t array

val run_prog : t -> Dsm.ctx -> Dsm.Prog.t -> bucket:int -> aux:float array -> unit

(** {1 Post-run inspection} *)

val peek_value : t -> Dsm.handle -> int -> float
(** Value of a key via {!Dsm.peek_float} (post-run verification). The
    key must be live ([slot_of] >= 0). *)

val peek_count : t -> Dsm.handle -> int -> float
(** A bucket's occupancy cell. *)

val instance : App.maker
(** The registered "kv" workload: [scale]d record/op counts, uniform
    keys from the per-processor PRNG, 50/30/15/5 get/put/rmw/scan mix,
    shadow-oracle verification. [vg] allocates the bucket region at
    256-byte granularity. *)
