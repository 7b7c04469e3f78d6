type 'a msg = { arrival : int; sent : int; src : int; seq : int; payload : 'a }

(* Minimal binary min-heap on (arrival, sent, src, seq).

   The tie-break beyond [arrival] must be a function of VIRTUAL time
   only: under run-ahead scheduling the real-time order in which two
   processors execute their sends is no longer the virtual-time order,
   so a global send counter alone would make delivery order depend on
   the scheduler. Messages sent at the same virtual instant are ordered
   by sender id (the order the min-clock scheduler runs equal clocks),
   and [seq] only separates sends from the same sender at the same
   instant, where the global counter does follow program order. *)
module Heap = struct
  type 'a t = { mutable data : 'a msg array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let size h = h.size

  let less a b =
    a.arrival < b.arrival
    || (a.arrival = b.arrival
       && (a.sent < b.sent
          || (a.sent = b.sent
             && (a.src < b.src || (a.src = b.src && a.seq < b.seq)))))

  let swap h i j =
    let t = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- t

  let push h m =
    if h.size = Array.length h.data then begin
      let cap = max 16 (2 * h.size) in
      let data = Array.make cap m in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- m;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Arrival time of the minimum, [max_int] when empty. The polling fast
     path (almost always "nothing due yet") must not allocate. *)
  let min_arrival h = if h.size = 0 then max_int else h.data.(0).arrival

  let peek h = if h.size = 0 then None else Some h.data.(0)

  (* Remove and return the minimum; the heap must be non-empty. *)
  let pop_exn h =
    assert (h.size > 0);
    let m = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
      if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    m

  let pop h = if h.size = 0 then None else Some (pop_exn h)
end

type 'a t = {
  topo : Topology.t;
  link : Link.t;
  nprocs : int;
  queues : 'a Heap.t array;
  last_arrival : int array;
      (* flat nprocs x nprocs table: [src * nprocs + dst] holds the last
         arrival timestamp assigned on that ordered pair, [min_int] when
         the pair has never carried a message. Replaces a tuple-keyed
         Hashtbl whose probe allocated a (src, dst) key on every send. *)
  seqs : int array;
      (* per-source send sequence. [seq] is only ever compared between
         messages of the same sender (see [Heap.less]), so a per-source
         counter yields the exact delivery order of a global one. *)
  n_local : int array;  (* per source, summed on demand post-run *)
  n_remote : int array;
  n_bytes_remote : int array;
  (* Crash quarantine: once a processor is marked dead, sends from or to
     it are silently discarded (the wire to a crashed node is cut). The
     [any_dead] flag keeps the common no-crash path at one branch. *)
  deads : bool array;
  mutable any_dead : bool;
  mutable n_dropped : int;
}

let create topo link =
  let nprocs = Topology.nprocs topo in
  {
    topo;
    link;
    nprocs;
    queues = Array.init nprocs (fun _ -> Heap.create ());
    last_arrival = Array.make (nprocs * nprocs) min_int;
    seqs = Array.make nprocs 0;
    n_local = Array.make nprocs 0;
    n_remote = Array.make nprocs 0;
    n_bytes_remote = Array.make nprocs 0;
    deads = Array.make nprocs false;
    any_dead = false;
    n_dropped = 0;
  }

let send t ~src ~dst ~now ~size payload =
  if t.any_dead && (t.deads.(src) || t.deads.(dst)) then
    t.n_dropped <- t.n_dropped + 1
  else
  let same_node = Topology.same_node t.topo src dst in
  let transfer = Link.transfer_cycles t.link ~same_node ~size in
  let arrival = now + transfer in
  let pair = (src * t.nprocs) + dst in
  let last = t.last_arrival.(pair) in
  (* In-order delivery per (src,dst) pair: a message computed to arrive
     at-or-before its predecessor is pushed just after it instead. *)
  let arrival = if last >= arrival then last + 1 else arrival in
  t.last_arrival.(pair) <- arrival;
  if same_node then t.n_local.(src) <- t.n_local.(src) + 1
  else begin
    t.n_remote.(src) <- t.n_remote.(src) + 1;
    t.n_bytes_remote.(src) <- t.n_bytes_remote.(src) + size
  end;
  let m = { arrival; sent = now; src; seq = t.seqs.(src); payload } in
  t.seqs.(src) <- t.seqs.(src) + 1;
  Heap.push t.queues.(dst) m

let poll t ~dst ~now =
  let q = t.queues.(dst) in
  if Heap.min_arrival q <= now then begin
    let m = Heap.pop_exn q in
    Some (m.src, m.payload)
  end
  else None

let earliest_arrival t ~dst = Heap.min_arrival t.queues.(dst)

let peek_arrival t ~dst =
  match Heap.peek t.queues.(dst) with
  | Some m -> Some m.arrival
  | None -> None

let queued t ~dst = Heap.size t.queues.(dst)

let mark_dead t pid =
  t.deads.(pid) <- true;
  t.any_dead <- true

let is_dead t pid = t.deads.(pid)

let dropped t = t.n_dropped

(* Discard every queued message with a dead endpoint (the in-flight
   traffic of the crashed node at the instant of the crash). Rebuilds
   each surviving heap by re-pushing the survivors — O(n log n), only
   ever run at a crash. *)
let purge_dead t =
  let purged = ref 0 in
  for dst = 0 to t.nprocs - 1 do
    let q = t.queues.(dst) in
    if Heap.size q > 0 then begin
      let survivors = ref [] in
      for i = Heap.size q - 1 downto 0 do
        let m = q.Heap.data.(i) in
        if t.deads.(m.src) || t.deads.(dst) then incr purged
        else survivors := m :: !survivors
      done;
      q.Heap.size <- 0;
      List.iter (fun m -> Heap.push q m) !survivors
    end
  done;
  t.n_dropped <- t.n_dropped + !purged;
  !purged

(* Selective cancellation: drop every queued message matching the
   predicate, returning the dropped messages sorted by their delivery
   stamps (arrival, sent, src, seq) — the order in which they would
   have been handled — so recovery surgery that re-interprets them is
   deterministic. Same rebuild strategy as [purge_dead]. *)
let purge_where t f =
  let dropped = ref [] in
  for dst = 0 to t.nprocs - 1 do
    let q = t.queues.(dst) in
    if Heap.size q > 0 then begin
      let survivors = ref [] in
      let removed = ref false in
      for i = Heap.size q - 1 downto 0 do
        let m = q.Heap.data.(i) in
        if f ~src:m.src ~dst m.payload then begin
          removed := true;
          dropped := (m, dst) :: !dropped
        end
        else survivors := m :: !survivors
      done;
      if !removed then begin
        q.Heap.size <- 0;
        List.iter (fun m -> Heap.push q m) !survivors
      end
    end
  done;
  t.n_dropped <- t.n_dropped + List.length !dropped;
  !dropped
  |> List.sort (fun (a, _) (b, _) ->
         compare (a.arrival, a.sent, a.src, a.seq) (b.arrival, b.sent, b.src, b.seq))
  |> List.map (fun (m, dst) -> (m.src, dst, m.payload))

let iter_queued t ~dst f =
  let q = t.queues.(dst) in
  for i = 0 to Heap.size q - 1 do
    let m = q.Heap.data.(i) in
    f ~src:m.src ~arrival:m.arrival m.payload
  done

let sum = Array.fold_left ( + ) 0

let sent_local t = sum t.n_local
let sent_remote t = sum t.n_remote
let bytes_remote t = sum t.n_bytes_remote
