module Machine = Shasta_core.Machine
module Config = Shasta_core.Config
module Observer = Shasta_core.Observer
module Event = Shasta_core.Event

(* One ring per processor. [count] is the total number of events ever
   appended; when it exceeds [Array.length buf] the oldest entries have
   been overwritten (flight-recorder semantics). Slots not yet written
   hold [filler] and are never read. *)
type ring = { buf : Event.t array; mutable count : int }

type t = { rings : ring array; capacity : int }

let default_capacity = 1 lsl 16

let filler =
  { Event.proc = -1; time = 0; payload = Lock_acquired { lock = -1 } }

(* Round up to a power of two so the ring index is a mask. *)
let pow2_at_least n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let create ?(capacity = default_capacity) ~nprocs () =
  let capacity = pow2_at_least (max 2 capacity) in
  {
    rings =
      Array.init nprocs (fun _ ->
          { buf = Array.make capacity filler; count = 0 });
    capacity;
  }

let record t (ev : Event.t) =
  let ring = t.rings.(ev.proc) in
  ring.buf.(ring.count land (Array.length ring.buf - 1)) <- ev;
  ring.count <- ring.count + 1

let observer t = Observer.of_events (record t)

let attach ?capacity m =
  let t = create ?capacity ~nprocs:m.Machine.cfg.Config.nprocs () in
  Machine.add_observer m (observer t);
  t

let capacity t = t.capacity

let recorded t = Array.fold_left (fun acc r -> acc + r.count) 0 t.rings

let dropped t =
  Array.fold_left
    (fun acc r -> acc + max 0 (r.count - Array.length r.buf)) 0 t.rings

let proc_events t p =
  let r = t.rings.(p) in
  let cap = Array.length r.buf in
  let n = min r.count cap in
  let first = r.count - n in
  List.init n (fun i -> r.buf.((first + i) land (cap - 1)))

(* Retained events of every processor, merged into the canonical
   scheduler-invariant order: (time, proc, per-proc emission order).
   Per-proc streams are already time-sorted, so tagging each event with
   its per-proc index makes the sort key total and deterministic. *)
let events t =
  let tagged = ref [] in
  Array.iteri
    (fun p _ ->
      List.iteri (fun i ev -> tagged := (ev.Event.time, p, i, ev) :: !tagged)
        (proc_events t p))
    t.rings;
  List.map (fun (_, _, _, ev) -> ev)
    (List.sort
       (fun (t1, p1, i1, _) (t2, p2, i2, _) ->
         compare (t1, p1, i1) (t2, p2, i2))
       !tagged)
