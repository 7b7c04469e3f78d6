(** Node-crash recovery: rebuild directory and protocol state after a
    fail-stop node crash.

    A crash kills every processor of one coherence node mid-run
    (continuations dropped where they stand, in-flight messages to and
    from the node discarded) and then repairs the survivors so the run
    can resume: dead-homed blocks are re-homed to the next live
    processor, and stranded lock and barrier waiters are re-issued or
    re-granted (manager state is global and survives — a dead manager
    only loses messages, and managers fail over by id). Each block the
    crash affects is rebuilt by {!Shasta_core.Coherence.Recovery}, the
    per-block decisions the model checker explores too: miss entries
    whose replies died are reset and their requests re-injected, the
    directory entry is reconstructed from the surviving copies, a block
    whose only copy was mid-downgrade to invalid on a survivor is
    rescued from that node's still-present bytes, and a block whose
    every copy died is restored or re-initialized.

    What a recovered block holds: the bytes of a copy that survives on a
    live node, or in a survivor's downgrade still under way. A block
    whose every copy died holds, under [Pull], zeros, as at allocation,
    and only when no live processor has a demand miss outstanding for
    it; otherwise recovery raises {!Recovery_violation} ([Data_loss])
    rather than fabricate bytes. Under [Ckpt] it holds the newest data
    reply for it logged since the checkpoint's snapshot or in flight at
    it, else the snapshot copy of its then-owner
    ({!Checkpoint.recover_data}). *)

type kind =
  | Data_loss of { block : int }
      (** every copy died, nothing can restore it, and a live processor
          has a demand miss outstanding for it *)
  | Invariant of { detail : string }
      (** the post-recovery machine failed a liveness or coherence
          invariant (checked when [Config.sanitize > 0]) *)

exception Recovery_violation of kind

type mode =
  | Pull  (** rebuild from surviving sharers only *)
  | Ckpt of Checkpoint.t
      (** additionally restore lost data from checkpoint + log *)

val rebuild :
  Shasta_core.Machine.t ->
  node:int ->
  mode:mode ->
  kill:(int -> unit) ->
  now:int ->
  unit
(** Crash coherence node [node] at virtual cycle [now] and recover.
    [kill] is the engine's kill function (see
    {!Shasta_sim.Engine.run}'s [events]); recovery runs atomically
    between scheduling points. Re-injected messages charge
    [Timing.remote_send] each to [Machine.recovery_cycles] (machine-
    wide; no processor's clock moves). Raises [Invalid_argument] if the
    node is already dead or is the last live node. *)
