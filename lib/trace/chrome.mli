(** Chrome [trace_event] JSON exporter.

    Produces the JSON-array flavour loadable in [chrome://tracing] and
    Perfetto. Tracks: [pid] = coherence node, [tid] = processor.
    Timestamps are microseconds of the simulated 300 MHz clock
    (1 us = 300 cycles). Misses ([Miss_end], which carries its start
    cycle) and node downgrades (paired pending-downgrade set/clear)
    become duration ("X") events; every other event is an instant ("i");
    process/thread name metadata ("M") records name the tracks. Every
    emitted object carries [ph]/[ts]/[pid]/[tid]. *)

val export :
  Buffer.t -> node_of:(int -> int) -> Shasta_core.Event.t list -> unit
(** [node_of] maps a processor id to its coherence node
    (e.g. [Shasta_core.Machine.node_of m]). *)

val to_string : node_of:(int -> int) -> Shasta_core.Event.t list -> string

val write_file :
  string -> node_of:(int -> int) -> Shasta_core.Event.t list -> unit
