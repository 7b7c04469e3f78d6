type entry = {
  mutable owner : int;
  mutable sharers : Shasta_util.Bitset.t;
  mutable busy : bool;
  mutable queue : (int * Msg.req_kind) list;
}

type t = (int, entry) Hashtbl.t

let create () = Hashtbl.create 256

let entry t ~block ~home =
  match Hashtbl.find_opt t block with
  | Some e -> e
  | None ->
    let e =
      { owner = home; sharers = Shasta_util.Bitset.empty; busy = false; queue = [] }
    in
    Hashtbl.replace t block e;
    e

let find t ~block = Hashtbl.find_opt t block
let iter f t = Hashtbl.iter f t
let clear t = Hashtbl.reset t
let remove t ~block = Hashtbl.remove t block
let push_queued e ~src kind = e.queue <- (src, kind) :: e.queue

let pop_queued e =
  match List.rev e.queue with
  | [] -> None
  | oldest :: rest ->
    e.queue <- List.rev rest;
    Some oldest
