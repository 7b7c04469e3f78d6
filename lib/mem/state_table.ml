type base = Invalid | Shared | Exclusive

let base_geq have need =
  match (have, need) with
  | Exclusive, _ -> true
  | Shared, (Invalid | Shared) -> true
  | Shared, Exclusive -> false
  | Invalid, Invalid -> true
  | Invalid, (Shared | Exclusive) -> false

let rank = function Invalid -> 0 | Shared -> 1 | Exclusive -> 2

type t = Bytes.t

let base_mask = 0b11
let pending_bit = 0b100
let downgrade_bit = 0b1000
let batch_bit = 0b10000

let create layout = Bytes.make (Layout.nlines layout) '\000'

(* Raw byte access for the inline-check fast path: an unchecked byte
   load/store behind an assert bounds check. No build passes [-noassert]
   (see the root [dune]), so the assert runs in every build, release
   included. *)
let unsafe_get_byte t l =
  assert (l >= 0 && l < Bytes.length t);
  Char.code (Bytes.unsafe_get t l)

let unsafe_set_byte t l v =
  assert (l >= 0 && l < Bytes.length t);
  assert (v >= 0 && v < 0x20);
  Bytes.unsafe_set t l (Char.unsafe_chr v)

let get t l =
  match unsafe_get_byte t l land base_mask with
  | 0 -> Invalid
  | 1 -> Shared
  | _ -> Exclusive

let set t l b =
  let v = unsafe_get_byte t l land lnot base_mask in
  let b = match b with Invalid -> 0 | Shared -> 1 | Exclusive -> 2 in
  unsafe_set_byte t l (v lor b)

let get_bit bit t l = unsafe_get_byte t l land bit <> 0

let set_bit bit t l v =
  let c = unsafe_get_byte t l in
  let c = if v then c lor bit else c land lnot bit in
  unsafe_set_byte t l c

let pending = get_bit pending_bit
let set_pending = set_bit pending_bit
let pending_downgrade = get_bit downgrade_bit
let set_pending_downgrade = set_bit downgrade_bit
let batch_marker = get_bit batch_bit
let set_batch_marker = set_bit batch_bit

(* Fused hit predicate: one byte load answers "is the line's base state
   at least [need] with no transient markers set?".  Clean bytes are
   exactly 0 (Invalid), 1 (Shared) and 2 (Exclusive); any pending /
   pending-downgrade / batch bit pushes the byte past [base_mask]. *)
let clean_geq t l need =
  let b = unsafe_get_byte t l in
  match need with
  | Invalid -> b land lnot base_mask = 0
  | Shared -> b = 1 || b = 2
  | Exclusive -> b = 2

let pp_base ppf b =
  Format.pp_print_string ppf
    (match b with Invalid -> "I" | Shared -> "S" | Exclusive -> "E")
