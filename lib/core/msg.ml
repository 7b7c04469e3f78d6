type req_kind = Read | Readex | Upgrade

type t =
  | Req of { kind : req_kind; block : int }
  | Fwd of { kind : req_kind; block : int; requester : int; inval_acks : int }
  | Data_reply of {
      kind : req_kind;
      block : int;
      data : Bytes.t;
      from_home : bool;
      inval_acks : int;
    }
  | Upgrade_reply of { block : int; inval_acks : int }
  | Invalidate of { block : int; requester : int }
  | Inval_ack of { block : int }
  | Sharing_wb of { block : int; new_sharer : int }
  | Own_ack of { block : int }
  | Downgrade of { block : int; target : Shasta_mem.State_table.base }
  | Lock_req of { lock : int }
  | Lock_grant of { lock : int }
  | Lock_release of { lock : int }
  | Barrier_arrive of { barrier : int }
  | Barrier_release of { barrier : int; generation : int }

let header = 16

let size_bytes = function
  | Data_reply { data; _ } -> header + Bytes.length data
  | Req _ | Fwd _ | Upgrade_reply _ | Invalidate _ | Inval_ack _
  | Sharing_wb _ | Own_ack _ | Downgrade _ | Lock_req _ | Lock_grant _
  | Lock_release _ | Barrier_arrive _ | Barrier_release _ ->
    header

let block_of = function
  | Req { block; _ }
  | Fwd { block; _ }
  | Data_reply { block; _ }
  | Upgrade_reply { block; _ }
  | Invalidate { block; _ }
  | Inval_ack { block; _ }
  | Sharing_wb { block; _ }
  | Own_ack { block; _ }
  | Downgrade { block; _ } ->
    Some block
  | Lock_req _ | Lock_grant _ | Lock_release _ | Barrier_arrive _
  | Barrier_release _ ->
    None

let data_reply_tag = 6

let tag = function
  | Req { kind = Read; _ } -> 0
  | Req { kind = Readex; _ } -> 1
  | Req { kind = Upgrade; _ } -> 2
  | Fwd { kind = Read; _ } -> 3
  | Fwd { kind = Readex; _ } -> 4
  | Fwd { kind = Upgrade; _ } -> 5
  | Data_reply _ -> data_reply_tag
  | Upgrade_reply _ -> 7
  | Invalidate _ -> 8
  | Inval_ack _ -> 9
  | Sharing_wb _ -> 10
  | Own_ack _ -> 11
  | Downgrade _ -> 12
  | Lock_req _ -> 13
  | Lock_grant _ -> 14
  | Lock_release _ -> 15
  | Barrier_arrive _ -> 16
  | Barrier_release _ -> 17

let tag_names =
  [|
    "read_req";
    "readex_req";
    "upgrade_req";
    "read_fwd";
    "readex_fwd";
    "upgrade_fwd";
    "data_reply";
    "upgrade_reply";
    "invalidate";
    "inval_ack";
    "sharing_wb";
    "own_ack";
    "downgrade";
    "lock_req";
    "lock_grant";
    "lock_release";
    "barrier_arrive";
    "barrier_release";
  |]

let describe = function
  | Req { kind = Read; _ } -> "read_req"
  | Req { kind = Readex; _ } -> "readex_req"
  | Req { kind = Upgrade; _ } -> "upgrade_req"
  | Fwd { kind = Read; _ } -> "read_fwd"
  | Fwd { kind = Readex; _ } -> "readex_fwd"
  | Fwd { kind = Upgrade; _ } -> "upgrade_fwd"
  | Data_reply _ -> "data_reply"
  | Upgrade_reply _ -> "upgrade_reply"
  | Invalidate _ -> "invalidate"
  | Inval_ack _ -> "inval_ack"
  | Sharing_wb _ -> "sharing_wb"
  | Own_ack _ -> "own_ack"
  | Downgrade _ -> "downgrade"
  | Lock_req _ -> "lock_req"
  | Lock_grant _ -> "lock_grant"
  | Lock_release _ -> "lock_release"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_release _ -> "barrier_release"
