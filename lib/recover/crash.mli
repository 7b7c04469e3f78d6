(** Crash injection as engine events.

    Build [(at, callback)] pairs for the [events] parameter of
    {!Shasta_core.Dsm.run} / [run_controlled]: at virtual cycle [at] the
    named node fail-stops and {!Recover.rebuild} repairs the survivors,
    atomically at a scheduler decision point. With no events scheduled
    the run is bit-identical to one without the crash machinery. *)

val event :
  Shasta_core.Dsm.handle ->
  node:int ->
  at:int ->
  mode:Recover.mode ->
  int * (kill:(int -> unit) -> now:int -> unit)

val kill :
  Shasta_core.Dsm.handle ->
  node:int ->
  at:int ->
  int * (kill:(int -> unit) -> now:int -> unit)
(** [event] with sharer-pull recovery ({!Recover.Pull}). *)

val with_checkpoint :
  Shasta_core.Dsm.handle ->
  node:int ->
  at:int ->
  ckpt:Checkpoint.t ->
  int * (kill:(int -> unit) -> now:int -> unit)
(** [event] with checkpoint + log recovery ({!Recover.Ckpt}). *)
