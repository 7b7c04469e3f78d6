(* A page directory: slot [i] holds bytes [i * page_size, (i + 1) *
   page_size) of the heap. A slot nobody has written points at one of
   two shared read-only pages, all zero or all flag; the first store or
   data install into it copies the shared page into a private one. *)
type t = Bytes.t array

let page_bits = Layout.page_bits
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let invalid_flag32 = 0xDEADBEEFl
let invalid_flag64 = 0xDEADBEEFDEADBEEFL

let zero_page = Bytes.make page_size '\000'

let flag_page =
  let p = Bytes.create page_size in
  for w = 0 to (page_size / 4) - 1 do
    Bytes.set_int32_le p (4 * w) invalid_flag32
  done;
  p

let create layout = Array.make (Layout.npages layout) zero_page

(* Unaligned 64-bit access primitives (the same ones Stdlib.Bytes builds
   its checked accessors on). They are native-endian; the image format
   is little-endian, so fall back to the checked LE accessors on a
   big-endian host — [Sys.big_endian] is a link-time constant, the
   branch costs nothing on the machines we care about. The asserts
   check bounds; no build profile here compiles them out. *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] in_one_page t a =
  a >= 0 && a lsr page_bits < Array.length t && a land page_mask <= page_size - 8

let[@inline never] copy_page t i p =
  let q = Bytes.copy p in
  t.(i) <- q;
  q

(* Slot [i]'s page, first made private if it is shared. *)
let[@inline] writable t i =
  let p = Array.unsafe_get t i in
  if p == zero_page || p == flag_page then copy_page t i p else p

let[@inline] load64 t a =
  assert (in_one_page t a);
  let p = Array.unsafe_get t (a lsr page_bits) in
  let o = a land page_mask in
  if Sys.big_endian then Bytes.get_int64_le p o else unsafe_get64 p o

let[@inline] store64 t a v =
  assert (in_one_page t a);
  let p = writable t (a lsr page_bits) in
  let o = a land page_mask in
  if Sys.big_endian then Bytes.set_int64_le p o v else unsafe_set64 p o v

let[@inline] load_float t a = Int64.float_of_bits (load64 t a)
let[@inline] store_float t a v = store64 t a (Int64.bits_of_float v)
let[@inline] load_int t a = Int64.to_int (load64 t a)
let[@inline] store_int t a v = store64 t a (Int64.of_int v)

(* [f i off a n] for each piece of [addr, addr + len) inside one page:
   bytes [a, a + n) of the heap are bytes [off, off + n) of slot [i]. *)
let iter_pieces t ~addr ~len f =
  assert (addr >= 0 && len >= 0 && addr + len <= Array.length t * page_size);
  let a = ref addr and stop = addr + len in
  while !a < stop do
    let off = !a land page_mask in
    let n = min (stop - !a) (page_size - off) in
    f (!a lsr page_bits) off !a n;
    a := !a + n
  done

(* [f pos n] for each maximal run [pos, pos + n) of [0, len) that no
   [skip] range covers. *)
let iter_unskipped ~len skip f =
  let skip = List.sort (fun (a, _) (b, _) -> Int.compare a b) skip in
  let pos =
    List.fold_left
      (fun pos (off, n) ->
        let stop = min off len in
        if stop > pos then f pos (stop - pos);
        max pos (off + n))
      0 skip
  in
  if pos < len then f pos (len - pos)

let snapshot t ~addr ~len =
  let b = Bytes.create len in
  iter_pieces t ~addr ~len (fun i off a n -> Bytes.blit t.(i) off b (a - addr) n);
  b

let write_bytes t ~addr ?(skip = []) data =
  iter_unskipped ~len:(Bytes.length data) skip (fun pos len ->
      iter_pieces t ~addr:(addr + pos) ~len (fun i off a n ->
          Bytes.blit data (a - addr) (writable t i) off n))

(* Set the unskipped bytes of [addr, addr + len) to those of [shared]. A
   whole page just points its slot at [shared]; a partial piece of a
   page that already is [shared] has nothing to change. Offsets match
   because both pages start on a page boundary. *)
let fill t shared ~addr ~len ~skip =
  iter_unskipped ~len skip (fun pos len ->
      iter_pieces t ~addr:(addr + pos) ~len (fun i off _ n ->
          if n = page_size then t.(i) <- shared
          else if t.(i) != shared then
            Bytes.blit shared off (writable t i) off n))

let write_invalid_flag ?(skip = []) t ~addr ~len =
  assert (addr mod 4 = 0 && len mod 4 = 0);
  fill t flag_page ~addr ~len ~skip

let zero t ~addr ~len = fill t zero_page ~addr ~len ~skip:[]
let is_flag64 v = Int64.equal v invalid_flag64
