(** The app kernels' hot loops as {!Shasta_core.Dsm.Prog} closures.

    Each kernel issues the memory ops of the loop body it stands for in
    the same order and computes the same floating-point expressions, so
    the values and the virtual time are those of the plain loop. A
    kernel holds no per-processor state and may be shared. *)

module Dsm = Shasta_core.Dsm

val water_integrate : dt:float -> box:float -> flop_cycles:int -> Dsm.Prog.t
(** One molecule's integrate step (water-nsq and water-sp), raw ops
    inside the molecule's batch: per dimension, advance velocity by the
    accumulated force, advance the wrapped position, clear the force.
    [base0] = the molecule's first field. *)

val barnes_integrate : dt:float -> flop_cycles:int -> Dsm.Prog.t
(** The same update without the periodic wrap, over checked accesses
    (Barnes does not batch its integrate phase). *)

val ocean_row :
  n:int -> jstart:int -> omega:float -> cell_cycles:int -> Dsm.Prog.t
(** One red-black SOR row over the matching-parity columns
    ([jstart] = 1 or 2). [base0]/[base1] = rows i-1 / i+1, [base2] =
    row i, [aux] = the pre-read right-hand-side row. *)

val ocean_rhs_row : n:int -> jstart:int -> Dsm.Prog.t
(** Checked prefetch of a right-hand-side row's matching-parity columns
    into [aux]. [base0] = the row's first cell. *)

val vec_read : k:int -> Dsm.Prog.t
(** [k] raw loads from [base0] into [aux] (FMM expansion vectors). *)

val vec_write : k:int -> Dsm.Prog.t
(** [k] raw stores from [aux] out to [base0]. *)
