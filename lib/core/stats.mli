(** Per-processor execution statistics.

    Cycle accounting follows the breakdown of Figure 4: task time (the
    application, inline checks and protocol-entry code), read/write stall
    time, synchronization stall time, message-handling time when not
    already stalled (handling while stalled is hidden inside the stall
    categories), and "other" protocol overhead (private state-table
    upgrades, pending-downgrade servicing, non-blocking store
    bookkeeping). *)

type category = Task | Read | Write | Sync | Message | Other

val categories : category list
val category_name : category -> string

type miss_class = {
  kind : Msg.req_kind;
  three_hop : bool;  (** reply came from a processor other than the home *)
}

type t = {
  mutable cycles : int array;  (** indexed by category *)
  mutable misses : int array;  (** indexed by miss class: kind x hops *)
  mutable private_upgrades : int;
      (** misses satisfied from the node's shared state table *)
  mutable false_misses : int;  (** flag checks that hit application data *)
  mutable read_latency_cycles : int;
  mutable read_latency_count : int;
  mutable downgrades_sent : int;  (** intra-node downgrade messages *)
  downgrade_events : Shasta_util.Histogram.t;
      (** per downgrade occurrence, the number of messages sent (0-3) *)
  mutable checks : int;  (** inline checks executed *)
  mutable fast_hits : int;
      (** inline checks resolved by the fused fast path (no protocol
          dispatch); a subset of [checks], and host-side bookkeeping
          only — never charged simulated cycles *)
  mutable accesses : int;
      (** checked application loads/stores issued through [Dsm]
          (per-access or in-batch), counted whether or not checks are
          enabled *)
  mutable prog_accesses : int;
      (** the subset of [accesses] issued inside [Dsm.Prog] kernels *)
}

val create : unit -> t
val add_cycles : t -> category -> int -> unit
val cycles : t -> category -> int
val total_cycles : t -> int
val record_miss : t -> miss_class -> unit
val miss_count : t -> miss_class -> int
val total_misses : t -> int
val record_read_latency : t -> int -> unit

val mean_read_latency_us : t -> float
(** Mean read-miss stall latency in microseconds ([0.] if no misses). *)

val aggregate : t list -> t
(** Pointwise sum across processors (read latency pooled). *)
