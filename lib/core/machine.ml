module Layout = Shasta_mem.Layout
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Block_map = Shasta_mem.Block_map
module Home_map = Shasta_mem.Home_map
module Alloc = Shasta_mem.Alloc
module Topology = Shasta_net.Topology
module Network = Shasta_net.Network

type node_state = {
  image : Image.t;
  table : State_table.t;
  misses : Miss_table.t;
  downgrades : Downgrade.t;
  deferred_flags : (int, unit) Hashtbl.t;
  batch_lines : (int, int) Hashtbl.t;
  batch_wranges : (int, (int * int) list) Hashtbl.t;
}

type lock_state = {
  mutable held : bool;
  mutable holder : int;
  mutable lock_queue : int list;
}

type barrier_state = {
  mutable arrived : int;
  mutable generation : int;
  mutable arrived_procs : int list;
}

type proc_state = {
  pid : int;
  node : int;
  stats : Stats.t;
  prng : Shasta_util.Prng.t;
  mutable engine : Shasta_sim.Engine.proc option;
  mutable category : Stats.category;
  mutable ops_since_poll : int;
  mutable outstanding_stores : int;
  granted : (int, unit) Hashtbl.t;
  barrier_seen : (int, int) Hashtbl.t;
  mutable finished : bool;
  mutable app_finish_cycles : int;
  mutable waiting_lock : int option;
      (* lock id this processor has requested but not yet been granted —
         crash recovery uses it to find stranded waiters *)
  mutable waiting_barrier : int option;
      (* barrier id this processor has arrived at but not yet been
         released from — crash recovery uses it to find stranded
         arrivals when the barrier manager died *)
}

type t = {
  cfg : Config.t;
  topo : Topology.t;
  net : Msg.t Network.t;
  layout : Layout.t;
  blocks : Block_map.t;
  homes : Home_map.t;
  heap : Alloc.t;
  nodes : node_state array;
  privates : State_table.t array;
  dirs : Directory.t array;
  locks : (int, lock_state) Hashtbl.t;
  barriers : (int, barrier_state) Hashtbl.t;
  barrier_local : (int, barrier_state) Hashtbl.t array;
  procs : proc_state array;
  mutable next_lock : int;
  mutable next_barrier : int;
  mutable observer : Observer.t option;
  (* Crash bookkeeping. [dead]/[dead_nodes] are set (with [has_dead])
     atomically with the recovery surgery by [Shasta_recover.Crash], so
     protocol code only ever observes a fully recovered machine; the
     flags gate the O(1) fast paths of lock/barrier homing and the
     barrier expected-count. *)
  dead : bool array;  (* per processor *)
  dead_nodes : bool array;  (* per coherence node *)
  mutable has_dead : bool;
  mutable crashes : int;
  mutable recovery_cycles : int;
}

let create (cfg : Config.t) =
  let layout =
    Layout.create ~line_size:cfg.Config.line_size ~heap_bytes:cfg.Config.heap_bytes
      ()
  in
  let blocks = Block_map.create layout in
  let topo =
    Topology.create ~nprocs:cfg.Config.nprocs
      ~procs_per_node:cfg.Config.procs_per_node
  in
  let make_node _ =
    {
      image = Image.create layout;
      table = State_table.create layout;
      misses = Miss_table.create ();
      downgrades = Downgrade.create ();
      deferred_flags = Hashtbl.create 8;
      batch_lines = Hashtbl.create 32;
      batch_wranges = Hashtbl.create 8;
    }
  in
  let make_proc pid =
    {
      pid;
      node = Config.node_of_proc cfg pid;
      stats = Stats.create ();
      prng = Shasta_util.Prng.create (cfg.Config.seed + (1000 * pid));
      engine = None;
      category = Stats.Task;
      ops_since_poll = 0;
      outstanding_stores = 0;
      granted = Hashtbl.create 4;
      barrier_seen = Hashtbl.create 4;
      finished = false;
      app_finish_cycles = 0;
      waiting_lock = None;
      waiting_barrier = None;
    }
  in
  {
    cfg;
    topo;
    net = Network.create topo cfg.Config.link;
    layout;
    blocks;
    homes = Home_map.create layout ~nprocs:cfg.Config.nprocs;
    heap = Alloc.create layout blocks;
    nodes = Array.init (Config.nnodes cfg) make_node;
    privates =
      Array.init cfg.Config.nprocs (fun _ -> State_table.create layout);
    dirs = Array.init cfg.Config.nprocs (fun _ -> Directory.create ());
    locks = Hashtbl.create 64;
    barriers = Hashtbl.create 8;
    barrier_local = Array.init (Config.nnodes cfg) (fun _ -> Hashtbl.create 8);
    procs = Array.init cfg.Config.nprocs make_proc;
    next_lock = 0;
    next_barrier = 0;
    observer = None;
    dead = Array.make cfg.Config.nprocs false;
    dead_nodes = Array.make (Config.nnodes cfg) false;
    has_dead = false;
    crashes = 0;
    recovery_cycles = 0;
  }

let add_observer t o =
  t.observer <-
    Some (match t.observer with None -> o | Some prev -> Observer.seq prev o)

let node_of t p = t.procs.(p).node

let home_of_block t block =
  Home_map.home_of_line t.homes t.layout (Layout.line_of t.layout block)

let block_base t addr = Block_map.base_addr t.blocks t.layout addr
let block_size t addr = Block_map.size_bytes t.blocks t.layout addr

let iter_blocks t f =
  let used = Alloc.used_bytes t.heap in
  let pos = ref 0 in
  while !pos < used do
    f !pos;
    pos := !pos + block_size t !pos
  done

let lines_of_block t block =
  ( Layout.line_of t.layout block,
    block_size t block / t.layout.Layout.line_size )

let block_in_batch t ns block =
  let first, n = lines_of_block t block in
  let hit = ref false in
  for l = first to first + n - 1 do
    if Hashtbl.mem ns.batch_lines l then hit := true
  done;
  !hit

let set_lines tbl ~first ~n state =
  for l = first to first + n - 1 do
    State_table.set tbl l state
  done

(* Establish initial ownership of the blocks of [addr, addr+len): the
   home's node holds an exclusive zeroed copy; every other node is
   invalid with the flag pattern stamped so that flag-based load checks
   fail as they must. The blocks are taken a segment at a time, a
   segment being consecutive blocks with one home. Homes follow each
   block's base line, not its pages: a block of a small object can
   straddle a page. A node's flag is stamped once per run of
   consecutive segments homed elsewhere, so the run's whole pages
   become the shared flag page rather than private copies. *)
let init_ownership t ~addr ~len =
  let nnodes = Array.length t.nodes in
  let run = Array.make nnodes (-1) in
  let stamp n stop =
    let start = run.(n) in
    if start >= 0 then begin
      Image.write_invalid_flag t.nodes.(n).image ~addr:start ~len:(stop - start);
      run.(n) <- -1
    end
  in
  let segment home start stop =
    let home_node = node_of t home in
    stamp home_node start;
    for i = 0 to nnodes - 1 do
      if i <> home_node && run.(i) < 0 then run.(i) <- start
    done;
    let first = Layout.line_of t.layout start in
    let n = Layout.line_of t.layout stop - first in
    let state owner =
      if owner then State_table.Exclusive else State_table.Invalid
    in
    Array.iteri
      (fun i ns -> set_lines ns.table ~first ~n (state (i = home_node)))
      t.nodes;
    Array.iteri (fun p tbl -> set_lines tbl ~first ~n (state (p = home))) t.privates
  in
  let pos = ref (block_base t addr) in
  let seg_start = ref !pos and seg_home = ref (home_of_block t !pos) in
  while !pos < addr + len do
    let home = home_of_block t !pos in
    if home <> !seg_home then begin
      segment !seg_home !seg_start !pos;
      seg_start := !pos;
      seg_home := home
    end;
    pos := !pos + block_size t !pos
  done;
  segment !seg_home !seg_start !pos;
  for i = 0 to nnodes - 1 do
    stamp i !pos
  done

let alloc t ?block_size:bs ?home size =
  let addr = Alloc.alloc t.heap ?block_size:bs size in
  (match home with
  | Some proc ->
    (* Homes live at page granularity. An object that starts mid-page
       shares its first page with the tail of an earlier allocation;
       pinning it to a different home would silently re-home those
       earlier bytes and orphan their directory entries (the livelock
       shape PR 5's flight recorder diagnosed). Pinning to the page's
       current home is idempotent and allowed (several small objects
       deliberately packed onto one pinned page); a trailing partial
       page is harmless too — the next allocation inherits the pin
       consistently — so only a conflicting leading boundary raises.
       Callers pad the preceding allocation to a page multiple or
       allocate the pinned object first. *)
    let ps = t.layout.Layout.page_size in
    (if addr mod ps <> 0 then
       let lead_home =
         Home_map.home_of_line t.homes t.layout
           (Layout.line_of t.layout (addr / ps * ps))
       in
       if lead_home <> proc then
         invalid_arg
           (Printf.sprintf
              "Machine.alloc ~home:%d: allocation at 0x%x starts mid-page \
               (page size %d bytes, page homed at %d); pinning would re-home \
               earlier objects on the shared page"
              proc addr ps lead_home));
    Home_map.set_home t.homes t.layout ~addr ~len:size ~proc
  | None -> ());
  init_ownership t ~addr ~len:size;
  addr

let place t ~addr ~len ~proc =
  (* Setup phase only. Homes live at page granularity, so re-pinning any
     byte of a page moves the whole page: operate on the page-aligned
     envelope so block states and the home map never disagree. Every
     node's copy of the envelope's blocks is flagged first, so no stale
     data survives the move in any copy; then the new home's copy of the
     envelope is zeroed. Data must be poked after placement. *)
  let ps = t.layout.Layout.page_size in
  let start = addr / ps * ps in
  let stop = (((addr + len - 1) / ps) + 1) * ps in
  let env_len = stop - start in
  let first = block_base t start in
  let last = block_base t (stop - 1) in
  let blocks_stop = last + block_size t last in
  Array.iter
    (fun ns ->
      Image.write_invalid_flag ns.image ~addr:first ~len:(blocks_stop - first))
    t.nodes;
  Home_map.set_home t.homes t.layout ~addr:start ~len:env_len ~proc;
  Image.zero t.nodes.(node_of t proc).image ~addr:start ~len:env_len;
  init_ownership t ~addr:start ~len:env_len

let alloc_lock t =
  let id = t.next_lock in
  t.next_lock <- id + 1;
  Hashtbl.replace t.locks id { held = false; holder = -1; lock_queue = [] };
  id

let alloc_barrier t =
  let id = t.next_barrier in
  t.next_barrier <- id + 1;
  Hashtbl.replace t.barriers id
    { arrived = 0; generation = 0; arrived_procs = [] };
  id

(* Lock/barrier manager homing: round-robin by id, walking forward past
   dead processors once a crash has happened (the manager role of a dead
   processor fails over to the next live pid; all processors compute the
   same answer because [dead] only changes inside the atomic crash
   surgery). *)
let live_manager t id =
  let n = t.cfg.Config.nprocs in
  let p = id mod n in
  if not t.has_dead then p
  else begin
    let q = ref p in
    while t.dead.(!q) do
      q := (!q + 1) mod n
    done;
    !q
  end

let lock_home t id = live_manager t id
let barrier_home t id = live_manager t id

let live_procs t =
  if not t.has_dead then t.cfg.Config.nprocs
  else begin
    let n = ref 0 in
    Array.iter (fun d -> if not d then incr n) t.dead;
    !n
  end

let live_nodes t =
  if not t.has_dead then Config.nnodes t.cfg
  else begin
    let n = ref 0 in
    Array.iter (fun d -> if not d then incr n) t.dead_nodes;
    !n
  end

(* ------------------------------------------------------------------ *)
(* Synchronization managers. Each step returns what it sends: the
   protocol delivers it and crash recovery plans it. *)

let hierarchical_barriers t =
  t.cfg.Config.smp_sync && t.cfg.Config.clustering > 1

let local_barrier t ~node id =
  let tbl = t.barrier_local.(node) in
  match Hashtbl.find_opt tbl id with
  | Some bs -> bs
  | None ->
    let bs = { arrived = 0; generation = 0; arrived_procs = [] } in
    Hashtbl.replace tbl id bs;
    bs

let hand_off_lock ls =
  (match List.rev ls.lock_queue with
  | [] ->
    ls.held <- false;
    ls.holder <- -1
  | oldest :: rest ->
    ls.lock_queue <- List.rev rest;
    ls.holder <- oldest);
  ls.holder

(* After a crash the barrier waits only for live participants. *)
let release_barrier t bs ~barrier =
  let hierarchical = hierarchical_barriers t in
  let expected = if hierarchical then live_nodes t else live_procs t in
  if bs.arrived < expected then []
  else begin
    bs.arrived <- 0;
    bs.arrived_procs <- [];
    bs.generation <- bs.generation + 1;
    let msg = Msg.Barrier_release { barrier; generation = bs.generation } in
    let cfg = t.cfg in
    let dsts =
      if hierarchical then
        List.filter_map
          (fun n ->
            if t.dead_nodes.(n) then None
            else Some (List.hd (Config.procs_of_node cfg n)))
          (List.init (Config.nnodes cfg) Fun.id)
      else
        List.filter (fun p -> not t.dead.(p)) (List.init cfg.Config.nprocs Fun.id)
    in
    List.map (fun dst -> (dst, msg)) dsts
  end

(* Evaluated lazily, cheapest condition first: the post-run drain loop
   probes this every [stall_gap] while the stragglers are still running,
   so the common answer is "no" at the finished-flags check — the
   directory sweep (O(blocks ever touched), unbounded over a run) must
   only be paid in the final iterations when every processor is done. *)
let quiescent t =
  Array.for_all (fun p -> p.finished) t.procs
  && (let ok = ref true in
      for p = 0 to t.cfg.Config.nprocs - 1 do
        if Network.queued t.net ~dst:p > 0 then ok := false
      done;
      !ok)
  && Array.for_all
       (fun ns ->
         Miss_table.count ns.misses = 0 && Downgrade.count ns.downgrades = 0)
       t.nodes
  && Array.for_all
       (fun d ->
         let idle = ref true in
         Directory.iter
           (fun _ e ->
             if e.Directory.busy || e.Directory.queue <> [] then idle := false)
           d;
         !idle)
       t.dirs

let parallel_cycles t =
  Array.fold_left (fun acc p -> max acc p.app_finish_cycles) 0 t.procs
