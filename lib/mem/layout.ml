type t = {
  line_size : int;
  line_shift : int;
  heap_bytes : int;
  page_size : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go s n = if n <= 1 then s else go (s + 1) (n lsr 1) in
  go 0 n

let page_bits = 12

let create ?(line_size = 64) ?(heap_bytes = 8 * 1024 * 1024) () =
  let page_size = 1 lsl page_bits in
  assert (is_power_of_two line_size && line_size >= 8);
  assert (page_size mod line_size = 0);
  assert (heap_bytes mod page_size = 0);
  { line_size; line_shift = log2 line_size; heap_bytes; page_size }

let nlines t = t.heap_bytes / t.line_size
let npages t = t.heap_bytes / t.page_size
let valid_addr t a = a >= 0 && a < t.heap_bytes

(* Addresses are non-negative, so the shift is the power-of-two division
   — without the hardware divide a division by a runtime value costs on
   this per-access path. *)
let line_of t a = a lsr t.line_shift
let addr_of_line t l = l * t.line_size
let page_of_line t l = l * t.line_size / t.page_size
