(** Protocol messages.

    [block] fields always carry the block's base byte address. Requests
    go requester → home; the home either replies directly (2 hops) or
    forwards to the owner (3 hops). Invalidations are acknowledged
    directly to the requester (eager release consistency). [Downgrade]
    messages exist only between processors of the same coherence node
    (§3.3). Lock and barrier traffic uses the same transport, as in the
    prototype. *)

type req_kind = Read | Readex | Upgrade

type t =
  | Req of { kind : req_kind; block : int }
  | Fwd of { kind : req_kind; block : int; requester : int; inval_acks : int }
      (** home → owner; [inval_acks] is how many sharer acknowledgements
          the requester must collect (readex only) *)
  | Data_reply of {
      kind : req_kind;
      block : int;
      data : Bytes.t;
      from_home : bool;
      inval_acks : int;
    }
  | Upgrade_reply of { block : int; inval_acks : int }
  | Invalidate of { block : int; requester : int }
      (** home → sharer; the sharer acknowledges to [requester] *)
  | Inval_ack of { block : int }
  | Sharing_wb of { block : int; new_sharer : int }
      (** owner → home after serving a forwarded read: the owner's node
          is now shared and [new_sharer] holds a copy *)
  | Own_ack of { block : int }
      (** old owner → home after serving a forwarded read-exclusive *)
  | Downgrade of { block : int; target : Shasta_mem.State_table.base }
  | Lock_req of { lock : int }
  | Lock_grant of { lock : int }
  | Lock_release of { lock : int }
  | Barrier_arrive of { barrier : int }
  | Barrier_release of { barrier : int; generation : int }

val size_bytes : t -> int
(** Wire size: a 16-byte header plus any data payload. *)

val block_of : t -> int option
(** The block a coherence message concerns; [None] for sync traffic. *)

val tag : t -> int
(** Stable small-integer message class, indexing {!tag_names} — request
    messages are split by [req_kind], [Fwd] is not. Used as a histogram
    key for per-kind message counters. *)

val tag_names : string array

val data_reply_tag : int
(** The tag of [Data_reply], the one message that carries a block copy. *)

val describe : t -> string
(** Constructor name, for traces and tests. *)
