(** Periodic global checkpoints with message logging.

    A checkpointer snapshots every node's copy of each block and the
    block's directory owner, and logs every message sent since the
    snapshot, re-snapshotting when the configured interval of virtual
    cycles has elapsed. Each log starts with the data replies in flight
    at its snapshot. Both piggyback on the
    {!Shasta_core.Observer.on_send} hook: they charge no simulated
    cycles, and with checkpointing off no observer is installed, so
    simulated time is bit-identical.

    Crash recovery ({!Recover}, mode [Ckpt]) restores a lost block's
    bytes with {!recover_data}. The block's directory entry is rebuilt
    from the surviving nodes, as in sharer-pull recovery. *)

type t
(** A running checkpointer attached to a machine. *)

val attach : Shasta_core.Machine.t -> interval:int -> t
(** Install the checkpointing observer; the machine's initial state is
    taken as the first snapshot. [interval] is in virtual cycles and
    must be positive. The crash tests, [Litmus.check_crash] and
    [shasta_cli crash --ckpt] attach one. *)

val snapshots : t -> int
(** Snapshots taken so far (at least 1 — the initial one). *)

val recover_data : t -> block:int -> Bytes.t option
(** Recoverable bytes for a block. The contract: a lost block holds the
    payload of the newest data reply for it logged since the snapshot
    or in flight at it (the snapshot records node copies, not the
    network, and a reply's sender has already stamped its own copy),
    else the snapshot copy of its then-owner node. [None] only for a
    block unknown to the snapshot. *)
