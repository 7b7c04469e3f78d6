type t = {
  on_event : Event.t -> unit;
  on_send : src:int -> dst:int -> now:int -> Msg.t -> unit;
  on_recv : src:int -> dst:int -> now:int -> Msg.t -> unit;
  on_load : proc:int -> addr:int -> len:int -> now:int -> unit;
  on_store : proc:int -> addr:int -> len:int -> now:int -> unit;
}

let nil =
  {
    on_event = (fun _ -> ());
    on_send = (fun ~src:_ ~dst:_ ~now:_ _ -> ());
    on_recv = (fun ~src:_ ~dst:_ ~now:_ _ -> ());
    on_load = (fun ~proc:_ ~addr:_ ~len:_ ~now:_ -> ());
    on_store = (fun ~proc:_ ~addr:_ ~len:_ ~now:_ -> ());
  }

let wants_events o = o.on_event != nil.on_event

let seq a b =
  {
    on_event =
      (if not (wants_events a) then b.on_event
       else if not (wants_events b) then a.on_event
       else fun e ->
         a.on_event e;
         b.on_event e);
    on_send =
      (fun ~src ~dst ~now m ->
        a.on_send ~src ~dst ~now m;
        b.on_send ~src ~dst ~now m);
    on_recv =
      (fun ~src ~dst ~now m ->
        a.on_recv ~src ~dst ~now m;
        b.on_recv ~src ~dst ~now m);
    on_load =
      (fun ~proc ~addr ~len ~now ->
        a.on_load ~proc ~addr ~len ~now;
        b.on_load ~proc ~addr ~len ~now);
    on_store =
      (fun ~proc ~addr ~len ~now ->
        a.on_store ~proc ~addr ~len ~now;
        b.on_store ~proc ~addr ~len ~now);
  }

let of_events f =
  let kind = Msg.tag and size = Msg.size_bytes in
  let block msg = Option.value ~default:(-1) (Msg.block_of msg) in
  {
    nil with
    on_event = f;
    on_send =
      (fun ~src ~dst ~now m ->
        f
          {
            Event.proc = src;
            time = now;
            payload =
              Send { dst; kind = kind m; size = size m; block = block m };
          });
    on_recv =
      (fun ~src ~dst ~now m ->
        f
          {
            Event.proc = dst;
            time = now;
            payload =
              Recv { src; kind = kind m; size = size m; block = block m };
          });
  }
