(** Line → block geometry.

    A block is one or more consecutive lines that are fetched and kept
    coherent as a unit; the block size is fixed per allocation (variable
    coherence granularity, the distinctive Shasta feature). The map is
    global — identical on every node — because allocation happens before
    the parallel phase.

    The map is two zero-filled byte arrays of one int32 per line: the
    distance from the line back to its block's first line, and the
    block's line count minus one. Zero in both means a one-line block,
    so creating a map is a memset, and the GC never scans it. *)

type t

val create : Layout.t -> t
(** Initially every line is its own one-line block. *)

val define : t -> first_line:int -> nlines:int -> unit
(** Mark [nlines] consecutive lines starting at [first_line] as a single
    block. [nlines] must be positive and the range in bounds. *)

val base_line : t -> int -> int
(** First line of the block containing a line. *)

val block_nlines : t -> int -> int
(** Number of lines in the block containing a line. *)

val base_addr : t -> Layout.t -> int -> int
(** First byte address of the block containing byte address [addr]. *)

val size_bytes : t -> Layout.t -> int -> int
(** Byte size of the block containing byte address [addr]. *)
