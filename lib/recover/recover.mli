(** Node-crash recovery: rebuild directory and protocol state after a
    fail-stop node crash.

    A crash kills every processor of one coherence node mid-run
    (continuations dropped where they stand, in-flight messages to and
    from the node discarded) and then repairs the survivors so the run
    can resume: dead-homed blocks are re-homed to the next live
    processor and their directory entries reconstructed from the
    surviving sharers' states; a block whose every copy died is restored
    from a checkpoint and its message log if one is attached ({!mode}
    [Ckpt]); miss entries whose replies died are reset and their
    requests re-injected; a block whose only copy was
    mid-downgrade to invalid on a survivor is rescued from that node's
    still-present bytes; stranded lock and barrier waiters are re-issued
    or re-granted (manager state is global and survives — a dead
    manager only loses messages, and managers fail over by id).

    Recovery is exact about what it cannot do: if every copy of a
    block's data died with the node, no checkpoint covers it, and a live
    processor is waiting on it, it raises {!Recovery_violation}
    ([Data_loss]) rather than fabricate bytes. *)

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
