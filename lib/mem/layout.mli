(** Shared address-space geometry.

    The simulated shared heap is a flat range of byte addresses
    [0, heap_bytes). It is subdivided into fixed-size [lines] (the unit
    of state-table bookkeeping, 64 bytes by default as in the paper) and
    [pages] (the unit of home assignment, 4096 bytes). Blocks — the unit
    of coherence — are defined per allocation on top of lines by
    {!Block_map}. *)

type t = private {
  line_size : int;
  line_shift : int;  (** [log2 line_size]; [line_of] divides by shifting *)
  heap_bytes : int;
  page_size : int;
}

val page_bits : int
(** [log2 page_size], the same for every layout: 12, for 4 KiB pages.
    {!Image} pages are layout pages. *)

val create : ?line_size:int -> ?heap_bytes:int -> unit -> t
(** Defaults: 64-byte lines, 8 MiB heap, 4 KiB pages. [line_size] must be
    a power of two of at least 8 and divide the page size. *)

val nlines : t -> int
val npages : t -> int

val valid_addr : t -> int -> bool
(** Is the address inside the shared heap? (The simulated equivalent of
    the inline check's shared-range test.) *)

val line_of : t -> int -> int
(** Line index containing a byte address. *)

val addr_of_line : t -> int -> int
(** First byte address of a line. *)

val page_of_line : t -> int -> int
