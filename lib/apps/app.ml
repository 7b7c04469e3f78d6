type verdict = { ok : bool; detail : string }

type instance = {
  name : string;
  workload : string;
  heap_bytes : int;
  setup :
    Shasta_core.Dsm.handle ->
    (Shasta_core.Dsm.ctx -> unit) * (Shasta_core.Dsm.handle -> verdict);
}

type maker = ?vg:bool -> ?scale:float -> unit -> instance

let heap inst = (max (1 lsl 22) inst.heap_bytes + 4095) / 4096 * 4096

let scaled s n = max 1 (int_of_float (Float.round (s *. float_of_int n)))
let pass ~detail = { ok = true; detail }
let fail ~detail = { ok = false; detail }

let close ?(tol = 1e-6) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale
