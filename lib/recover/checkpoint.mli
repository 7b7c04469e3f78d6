(** Periodic global checkpoints with message logging.

    A checkpointer snapshots the protocol-visible durable state — block
    images, state-table bases, private tables, and flattened directory
    entries — and logs every message sent since the snapshot, re-
    snapshotting when the configured interval of virtual cycles has
    elapsed. Both piggyback on the {!Shasta_core.Observer.on_send} hook:
    they charge no simulated cycles, and with checkpointing off no
    observer is installed, so simulated time is bit-identical.

    Crash recovery ({!Recover}, mode [Ckpt]) restores a lost block's
    bytes from the last logged data reply for the block, falling back to
    the snapshot copy of its then-owner, and can roll a block's
    directory image forward by replaying the log. Replay applies each
    message as an absolute update, so replaying any log prefix twice
    equals replaying it once (checked by the QCheck round-trip tests). *)

type snap
(** A consistent global snapshot. *)

type t
(** A running checkpointer attached to a machine. *)

val attach : Shasta_core.Machine.t -> interval:int -> t
(** Install the checkpointing observer; the machine's initial state is
    taken as the first snapshot. [interval] is in virtual cycles and
    must be positive (the experiment runner attaches one when
    [SHASTA_CKPT] is a positive interval; 0 means checkpointing is off
    and [attach] must not be called). *)

val snapshot : ?now:int -> Shasta_core.Machine.t -> snap
(** One consistent snapshot of the machine, independent of any attached
    checkpointer. *)

val restore : Shasta_core.Machine.t -> snap -> unit
(** Write a snapshot back into the machine: images, state tables,
    private tables, and directory owner/sharer sets (busy flags cleared,
    queues dropped). [restore m (snapshot m)] is an identity on that
    state ([snapshot (restore m s) = s] is the QCheck property). *)

val snapshots : t -> int
(** Snapshots taken so far (at least 1 — the initial one). *)

val log_length : t -> int
(** Messages logged since the last snapshot. *)

val recover_data : t -> block:int -> Bytes.t option
(** Best-recoverable bytes for a block: the payload of the last logged
    data reply for it, else the snapshot copy of its then-owner node.
    [None] only for a block unknown to the snapshot. *)

val recover_dir : t -> block:int -> int * Shasta_util.Bitset.t
(** The block's (owner, sharers) directory image as of now: the snapshot
    image rolled forward through the log with {!replay}. *)

val replay :
  block:int ->
  int * Shasta_util.Bitset.t ->
  (int * int * Shasta_core.Msg.t) list ->
  int * Shasta_util.Bitset.t
(** Pure per-block fold of (src, dst, msg) log entries over an (owner,
    sharers) directory image, oldest first. Idempotent per prefix: every
    update is absolute, so the last relevant message decides each
    field. *)

val iter_blocks : Shasta_core.Machine.t -> (int -> unit) -> unit
(** Iterate the base addresses of all allocated blocks, ascending. *)
