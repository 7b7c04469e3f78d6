type base = Shasta_mem.State_table.base

type t = {
  on_state :
    by:int -> node:int -> block:int -> from_:base -> to_:base -> now:int -> unit;
  on_private :
    by:int -> proc:int -> block:int -> from_:base -> to_:base -> now:int -> unit;
  on_pending : by:int -> node:int -> block:int -> set:bool -> now:int -> unit;
  on_pending_downgrade :
    by:int -> node:int -> block:int -> set:bool -> now:int -> unit;
  on_send : src:int -> dst:int -> now:int -> Msg.t -> unit;
  on_recv : src:int -> dst:int -> now:int -> Msg.t -> unit;
  on_miss_start : proc:int -> block:int -> kind:Msg.req_kind -> now:int -> unit;
  on_miss_end :
    proc:int -> block:int -> kind:Msg.req_kind -> start:int -> now:int -> unit;
  on_downgrade_ack : proc:int -> block:int -> now:int -> unit;
  on_downgrade_done : proc:int -> block:int -> now:int -> unit;
  on_downgrade_queued :
    proc:int -> block:int -> src:int -> now:int -> Msg.t -> unit;
  on_downgrade_replay :
    proc:int -> block:int -> src:int -> now:int -> Msg.t -> unit;
  on_load : proc:int -> addr:int -> len:int -> now:int -> unit;
  on_store : proc:int -> addr:int -> len:int -> now:int -> unit;
  on_lock_acquired : proc:int -> lock:int -> now:int -> unit;
  on_lock_released : proc:int -> lock:int -> now:int -> unit;
  on_barrier_arrive : proc:int -> barrier:int -> epoch:int -> now:int -> unit;
  on_barrier_leave : proc:int -> barrier:int -> epoch:int -> now:int -> unit;
}

let nil =
  {
    on_state = (fun ~by:_ ~node:_ ~block:_ ~from_:_ ~to_:_ ~now:_ -> ());
    on_private = (fun ~by:_ ~proc:_ ~block:_ ~from_:_ ~to_:_ ~now:_ -> ());
    on_pending = (fun ~by:_ ~node:_ ~block:_ ~set:_ ~now:_ -> ());
    on_pending_downgrade = (fun ~by:_ ~node:_ ~block:_ ~set:_ ~now:_ -> ());
    on_send = (fun ~src:_ ~dst:_ ~now:_ _ -> ());
    on_recv = (fun ~src:_ ~dst:_ ~now:_ _ -> ());
    on_miss_start = (fun ~proc:_ ~block:_ ~kind:_ ~now:_ -> ());
    on_miss_end = (fun ~proc:_ ~block:_ ~kind:_ ~start:_ ~now:_ -> ());
    on_downgrade_ack = (fun ~proc:_ ~block:_ ~now:_ -> ());
    on_downgrade_done = (fun ~proc:_ ~block:_ ~now:_ -> ());
    on_downgrade_queued = (fun ~proc:_ ~block:_ ~src:_ ~now:_ _ -> ());
    on_downgrade_replay = (fun ~proc:_ ~block:_ ~src:_ ~now:_ _ -> ());
    on_load = (fun ~proc:_ ~addr:_ ~len:_ ~now:_ -> ());
    on_store = (fun ~proc:_ ~addr:_ ~len:_ ~now:_ -> ());
    on_lock_acquired = (fun ~proc:_ ~lock:_ ~now:_ -> ());
    on_lock_released = (fun ~proc:_ ~lock:_ ~now:_ -> ());
    on_barrier_arrive = (fun ~proc:_ ~barrier:_ ~epoch:_ ~now:_ -> ());
    on_barrier_leave = (fun ~proc:_ ~barrier:_ ~epoch:_ ~now:_ -> ());
  }

let seq a b =
  {
    on_state =
      (fun ~by ~node ~block ~from_ ~to_ ~now ->
        a.on_state ~by ~node ~block ~from_ ~to_ ~now;
        b.on_state ~by ~node ~block ~from_ ~to_ ~now);
    on_private =
      (fun ~by ~proc ~block ~from_ ~to_ ~now ->
        a.on_private ~by ~proc ~block ~from_ ~to_ ~now;
        b.on_private ~by ~proc ~block ~from_ ~to_ ~now);
    on_pending =
      (fun ~by ~node ~block ~set ~now ->
        a.on_pending ~by ~node ~block ~set ~now;
        b.on_pending ~by ~node ~block ~set ~now);
    on_pending_downgrade =
      (fun ~by ~node ~block ~set ~now ->
        a.on_pending_downgrade ~by ~node ~block ~set ~now;
        b.on_pending_downgrade ~by ~node ~block ~set ~now);
    on_send =
      (fun ~src ~dst ~now m ->
        a.on_send ~src ~dst ~now m;
        b.on_send ~src ~dst ~now m);
    on_recv =
      (fun ~src ~dst ~now m ->
        a.on_recv ~src ~dst ~now m;
        b.on_recv ~src ~dst ~now m);
    on_miss_start =
      (fun ~proc ~block ~kind ~now ->
        a.on_miss_start ~proc ~block ~kind ~now;
        b.on_miss_start ~proc ~block ~kind ~now);
    on_miss_end =
      (fun ~proc ~block ~kind ~start ~now ->
        a.on_miss_end ~proc ~block ~kind ~start ~now;
        b.on_miss_end ~proc ~block ~kind ~start ~now);
    on_downgrade_ack =
      (fun ~proc ~block ~now ->
        a.on_downgrade_ack ~proc ~block ~now;
        b.on_downgrade_ack ~proc ~block ~now);
    on_downgrade_done =
      (fun ~proc ~block ~now ->
        a.on_downgrade_done ~proc ~block ~now;
        b.on_downgrade_done ~proc ~block ~now);
    on_downgrade_queued =
      (fun ~proc ~block ~src ~now m ->
        a.on_downgrade_queued ~proc ~block ~src ~now m;
        b.on_downgrade_queued ~proc ~block ~src ~now m);
    on_downgrade_replay =
      (fun ~proc ~block ~src ~now m ->
        a.on_downgrade_replay ~proc ~block ~src ~now m;
        b.on_downgrade_replay ~proc ~block ~src ~now m);
    on_load =
      (fun ~proc ~addr ~len ~now ->
        a.on_load ~proc ~addr ~len ~now;
        b.on_load ~proc ~addr ~len ~now);
    on_store =
      (fun ~proc ~addr ~len ~now ->
        a.on_store ~proc ~addr ~len ~now;
        b.on_store ~proc ~addr ~len ~now);
    on_lock_acquired =
      (fun ~proc ~lock ~now ->
        a.on_lock_acquired ~proc ~lock ~now;
        b.on_lock_acquired ~proc ~lock ~now);
    on_lock_released =
      (fun ~proc ~lock ~now ->
        a.on_lock_released ~proc ~lock ~now;
        b.on_lock_released ~proc ~lock ~now);
    on_barrier_arrive =
      (fun ~proc ~barrier ~epoch ~now ->
        a.on_barrier_arrive ~proc ~barrier ~epoch ~now;
        b.on_barrier_arrive ~proc ~barrier ~epoch ~now);
    on_barrier_leave =
      (fun ~proc ~barrier ~epoch ~now ->
        a.on_barrier_leave ~proc ~barrier ~epoch ~now;
        b.on_barrier_leave ~proc ~barrier ~epoch ~now);
  }
