module State_table = Shasta_mem.State_table

type base = State_table.base

type payload =
  | State of { node : int; block : int; from_ : base; to_ : base }
  | Private of { target : int; block : int; from_ : base; to_ : base }
  | Pending of { node : int; block : int; set : bool }
  | Pending_downgrade of { node : int; block : int; set : bool }
  | Send of { dst : int; kind : int; size : int; block : int }
  | Recv of { src : int; kind : int; size : int; block : int }
  | Miss_start of { block : int; kind : Msg.req_kind }
  | Miss_end of { block : int; kind : Msg.req_kind; start : int }
  | Downgrade_ack of { block : int }
  | Downgrade_done of { block : int }
  | Downgrade_queued of { block : int; src : int; kind : int }
  | Downgrade_replay of { block : int; src : int; kind : int }
  | Lock_acquired of { lock : int }
  | Lock_released of { lock : int }
  | Barrier_arrive of { barrier : int; epoch : int }
  | Barrier_leave of { barrier : int; epoch : int }

type t = { proc : int; time : int; payload : payload }

let classes =
  [
    "state";
    "private";
    "pending";
    "pending_downgrade";
    "send";
    "recv";
    "miss_start";
    "miss_end";
    "downgrade_ack";
    "downgrade_done";
    "downgrade_queued";
    "downgrade_replay";
    "lock_acquired";
    "lock_released";
    "barrier_arrive";
    "barrier_leave";
  ]

let class_name e =
  match e.payload with
  | State _ -> "state"
  | Private _ -> "private"
  | Pending _ -> "pending"
  | Pending_downgrade _ -> "pending_downgrade"
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Miss_start _ -> "miss_start"
  | Miss_end _ -> "miss_end"
  | Downgrade_ack _ -> "downgrade_ack"
  | Downgrade_done _ -> "downgrade_done"
  | Downgrade_queued _ -> "downgrade_queued"
  | Downgrade_replay _ -> "downgrade_replay"
  | Lock_acquired _ -> "lock_acquired"
  | Lock_released _ -> "lock_released"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_leave _ -> "barrier_leave"

let block_of e =
  match e.payload with
  | State { block; _ }
  | Private { block; _ }
  | Pending { block; _ }
  | Pending_downgrade { block; _ }
  | Miss_start { block; _ }
  | Miss_end { block; _ }
  | Downgrade_ack { block }
  | Downgrade_done { block }
  | Downgrade_queued { block; _ }
  | Downgrade_replay { block; _ } ->
    Some block
  | Send { block; _ } | Recv { block; _ } ->
    if block < 0 then None else Some block
  | Lock_acquired _ | Lock_released _ | Barrier_arrive _ | Barrier_leave _ ->
    None

let base_name = function
  | State_table.Invalid -> "I"
  | State_table.Shared -> "S"
  | State_table.Exclusive -> "E"

let req_kind_name = function
  | Msg.Read -> "read"
  | Msg.Readex -> "readex"
  | Msg.Upgrade -> "upgrade"

let msg_kind_name k =
  if k >= 0 && k < Array.length Msg.tag_names then Msg.tag_names.(k)
  else Printf.sprintf "kind%d" k

let describe e =
  match e.payload with
  | State { node; block; from_; to_ } ->
    Printf.sprintf "state node=%d block=%#x %s->%s" node block
      (base_name from_) (base_name to_)
  | Private { target; block; from_; to_ } ->
    Printf.sprintf "private p%d block=%#x %s->%s" target block
      (base_name from_) (base_name to_)
  | Pending { node; block; set } ->
    Printf.sprintf "pending node=%d block=%#x %s" node block
      (if set then "set" else "clear")
  | Pending_downgrade { node; block; set } ->
    Printf.sprintf "pending_downgrade node=%d block=%#x %s" node block
      (if set then "set" else "clear")
  | Send { dst; kind; size; block } ->
    if block < 0 then
      Printf.sprintf "send %s -> p%d %dB" (msg_kind_name kind) dst size
    else
      Printf.sprintf "send %s -> p%d %dB block=%#x" (msg_kind_name kind) dst
        size block
  | Recv { src; kind; size; block } ->
    if block < 0 then
      Printf.sprintf "recv %s <- p%d %dB" (msg_kind_name kind) src size
    else
      Printf.sprintf "recv %s <- p%d %dB block=%#x" (msg_kind_name kind) src
        size block
  | Miss_start { block; kind } ->
    Printf.sprintf "miss_start %s block=%#x" (req_kind_name kind) block
  | Miss_end { block; kind; start } ->
    Printf.sprintf "miss_end %s block=%#x latency=%d" (req_kind_name kind)
      block (e.time - start)
  | Downgrade_ack { block } -> Printf.sprintf "downgrade_ack block=%#x" block
  | Downgrade_done { block } -> Printf.sprintf "downgrade_done block=%#x" block
  | Downgrade_queued { block; src; kind } ->
    Printf.sprintf "downgrade_queued %s from p%d block=%#x"
      (msg_kind_name kind) src block
  | Downgrade_replay { block; src; kind } ->
    Printf.sprintf "downgrade_replay %s from p%d block=%#x"
      (msg_kind_name kind) src block
  | Lock_acquired { lock } -> Printf.sprintf "lock_acquired %d" lock
  | Lock_released { lock } -> Printf.sprintf "lock_released %d" lock
  | Barrier_arrive { barrier; epoch } ->
    Printf.sprintf "barrier_arrive %d epoch=%d" barrier epoch
  | Barrier_leave { barrier; epoch } ->
    Printf.sprintf "barrier_leave %d epoch=%d" barrier epoch

let to_string e = Printf.sprintf "[p%d @%d] %s" e.proc e.time (describe e)

type filter = {
  procs : int list;
  blocks : int list;
  kinds : string list;
  from_ : int option;
  upto : int option;
}

let no_filter = { procs = []; blocks = []; kinds = []; from_ = None; upto = None }

let matches f e =
  (f.procs = [] || List.mem e.proc f.procs)
  && (f.blocks = []
     || match block_of e with Some b -> List.mem b f.blocks | None -> false)
  && (f.kinds = [] || List.mem (class_name e) f.kinds)
  && (match f.from_ with Some lo -> e.time >= lo | None -> true)
  && match f.upto with Some hi -> e.time <= hi | None -> true
