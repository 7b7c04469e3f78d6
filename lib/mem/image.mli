(** A node's copy of the shared heap, holding real data bytes.

    Every coherence node (an SMP in SMP-Shasta, a single processor in
    Base-Shasta) has one image; copies of a block live at the same
    address in every image. Loads and stores move real values so that
    protocol correctness is observable, including the invalid-flag
    mechanism: invalidation physically writes the flag pattern into the
    block, and flag-based load checks compare against it.

    An image is a directory of 4 KiB pages, the {!Layout} pages, so a
    run pays only for the memory it touches. A page nobody has written
    is not allocated: its slot points at one of two pages shared by
    every image, all zero or all flag. The first store or data install into such a page copies
    it into a private page (copy-on-write); the shared pages themselves
    are never written. Stamping the flag over a whole page, or zeroing
    one, just points the slot back at the shared page. Loads stay
    branch-free: one extra dependent load, of the page's slot. *)

type t

val create : Layout.t -> t
(** All zero: every slot points at the shared zero page. *)

(** {2 Values}

    An 8-byte access must lie inside one page, which every 8-byte
    aligned address does; an assertion checks it. *)

val load64 : t -> int -> int64
val store64 : t -> int -> int64 -> unit

val load_float : t -> int -> float
val store_float : t -> int -> float -> unit

val load_int : t -> int -> int
(** 63-bit int stored as int64; convenient for index arrays. *)

val store_int : t -> int -> int -> unit

(** {2 Ranges} *)

val snapshot : t -> addr:int -> len:int -> Bytes.t
(** Copy of [len] bytes starting at [addr] — the payload of a data reply
    message (data is captured at send time, as on the real network). *)

val write_bytes : t -> addr:int -> ?skip:(int * int) list -> Bytes.t -> unit
(** Install reply data at [addr], leaving the (offset, len) ranges in
    [skip] untouched — the merge of reply data around locations already
    written by non-blocking stores (§2.1). Offsets are relative to
    [addr]. *)

val zero : t -> addr:int -> len:int -> unit
(** Zero [addr, addr+len); whole pages go back to the shared zero
    page. *)

(** {2 The invalid flag} *)

val invalid_flag32 : int32
(** Flag value written into each longword (4 bytes) of an invalidated
    block. *)

val invalid_flag64 : int64
(** Two adjacent flag longwords, i.e. what an 8-byte load of invalidated
    memory returns. *)

val write_invalid_flag :
  ?skip:(int * int) list -> t -> addr:int -> len:int -> unit
(** Stamp the flag into every longword of [addr, addr+len), leaving the
    (offset, len) ranges in [skip] (relative to [addr], as for
    {!write_bytes}) untouched. Whole pages point at the shared flag
    page; [addr] and [len] must be multiples of 4. *)

val is_flag64 : int64 -> bool
(** The flag-based load check: does an 8-byte value equal the flag
    pattern? A [true] answer may be a false miss if the application
    actually stored the pattern. *)
