(* Two int32 fields per line, zero-filled at creation: [back] is the
   distance from the line back to its block's first line, [extra] the
   block's line count minus one. Zero in both is a one-line block, so
   creation is a memset and the GC has nothing to scan. The fields are
   native-endian; only this module reads them. *)
type t = { back : Bytes.t; extra : Bytes.t }

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let create layout =
  let n = 4 * Layout.nlines layout in
  { back = Bytes.make n '\000'; extra = Bytes.make n '\000' }

let nlines t = Bytes.length t.back / 4

let[@inline] get b l =
  assert (l >= 0 && (4 * l) + 4 <= Bytes.length b);
  Int32.to_int (get32 b (4 * l))

let define t ~first_line ~nlines:n =
  assert (n > 0);
  assert (first_line >= 0 && first_line + n <= nlines t);
  let extra = Int32.of_int (n - 1) in
  for i = 0 to n - 1 do
    set32 t.back (4 * (first_line + i)) (Int32.of_int i);
    set32 t.extra (4 * (first_line + i)) extra
  done

let base_line t l = l - get t.back l
let block_nlines t l = get t.extra l + 1

let base_addr t layout addr =
  Layout.addr_of_line layout (base_line t (Layout.line_of layout addr))

let size_bytes t layout addr =
  block_nlines t (Layout.line_of layout addr) * layout.Layout.line_size
