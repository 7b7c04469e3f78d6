module Engine = Shasta_sim.Engine
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Layout = Shasta_mem.Layout
module Network = Shasta_net.Network

type handle = {
  m : Machine.t;
  mutable ran : bool;
  mutable sched : Engine.outcome option;
}

let create cfg = { m = Machine.create cfg; ran = false; sched = None }
let config h = h.m.Machine.cfg
let machine h = h.m

let alloc h ?block_size ?home size = Machine.alloc h.m ?block_size ?home size

let alloc_floats h ?block_size ?home n =
  Machine.alloc h.m ?block_size ?home (8 * n)

let place h ~addr ~len ~proc = Machine.place h.m ~addr ~len ~proc
let alloc_lock h = Machine.alloc_lock h.m
let alloc_barrier h = Machine.alloc_barrier h.m

let home_image h addr =
  let block = Machine.block_base h.m addr in
  let home = Machine.home_of_block h.m block in
  h.m.Machine.nodes.(Machine.node_of h.m home).Machine.image

let poke_float h addr v = Image.store_float (home_image h addr) addr v
let poke_int h addr v = Image.store_int (home_image h addr) addr v

(* Scan for a valid copy, preferring an exclusive one. The protocol
   keeps at most one Exclusive copy, so the scan can stop at the first
   one it sees; otherwise any Shared copy serves. *)
let peek_image h addr =
  let line = Layout.line_of h.m.Machine.layout addr in
  let nodes = h.m.Machine.nodes in
  let n = Array.length nodes in
  let rec scan i best =
    if i >= n then best
    else
      let ns = nodes.(i) in
      match State_table.get ns.Machine.table line with
      | State_table.Exclusive -> Some ns.Machine.image
      | State_table.Shared ->
        scan (i + 1)
          (match best with None -> Some ns.Machine.image | some -> some)
      | State_table.Invalid -> scan (i + 1) best
  in
  match scan 0 None with
  | Some img -> img
  | None -> invalid_arg "Dsm.peek: no valid copy"

let peek_float h addr = Image.load_float (peek_image h addr) addr
let peek_int h addr = Image.load_int (peek_image h addr) addr

(* The context carries the fast-path machinery alongside the protocol
   handle. [fast] is resolved once per run: the fused inline-check path
   is on only when the configuration asks for it and no observer is
   installed (observers must see every access hook with its exact
   timestamp, which the fused path does not produce). All other fields
   are caches of per-run constants so the hit path touches no
   indirections beyond the context itself.

   [acc] is the deferred-cycle accumulator: the fused hit path banks its
   inline-check and raw-access costs here instead of calling
   [Protocol.charge] per access, and [flush] settles the balance before
   every point where simulated time becomes observable (a poll's
   scheduling point, a miss entering the protocol, synchronization,
   [now], the final drain). Since nothing between two such points can
   observe this processor's clock, every yield happens at exactly the
   virtual time the per-access accounting would have produced — cycles,
   stats and message timings are bit-identical. The one visible
   difference is host-side only: a [Cycle_limit] for a budget exhausted
   mid-run is raised at the flush instead of mid-access.

   [declared] holds the ranges of the current reference batch window:
   with [sanitize] on, the reference [Batch] accessors check every raw
   access against them. *)
type access = R | W

type ctx = {
  p : Protocol.ctx;
  mutable in_batch : bool;
  fast : bool;
  sanitize : bool;
  mutable declared : (int * int * access) list;
  ps : Machine.proc_state;
  st : Stats.t;
  image : Image.t;  (** this processor's node image *)
  ctable : State_table.t;  (** table consulted by inline checks *)
  ntable : State_table.t;  (** node shared table (= [ctable] on Base) *)
  layout : Layout.t;
  smp : bool;
  checks : bool;
  tmg : Timing.t;
  c_load_int : int;  (** inline-check costs, folded to 0 when checks off *)
  c_load_float : int;
  c_store : int;
  c_per_line : int;
  c_per_range : int;
  mutable acc : int;  (** deferred cycles not yet charged *)
  mutable iv_first : int array;  (** scratch: batch range line intervals *)
  mutable iv_last : int array;
}

let make_ctx m p ~fast =
  let cfg = m.Machine.cfg in
  let t = Protocol.timing p in
  let ps = Protocol.proc_state p in
  let checks = cfg.Config.checks_enabled in
  let smp = Protocol.is_smp p in
  let cc c = if checks then c else 0 in
  {
    p;
    in_batch = false;
    fast = fast && cfg.Config.fastpath && m.Machine.observer = None;
    sanitize = cfg.Config.sanitize > 0;
    declared = [];
    ps;
    st = ps.Machine.stats;
    image = Protocol.node_image p;
    ctable = Protocol.check_table p;
    ntable = m.Machine.nodes.(ps.Machine.node).Machine.table;
    layout = m.Machine.layout;
    smp;
    checks;
    tmg = t;
    c_load_int = cc t.Timing.load_check_flag;
    c_load_float =
      cc
        (if smp then t.Timing.load_check_flag_float_smp
         else t.Timing.load_check_flag_float_base);
    c_store = cc t.Timing.store_check;
    c_per_line =
      cc
        (if smp then t.Timing.batch_check_per_line_smp
         else t.Timing.batch_check_per_line_base);
    c_per_range = cc t.Timing.batch_check_per_range;
    acc = 0;
    iv_first = Array.make 8 0;
    iv_last = Array.make 8 0;
  }

let pid ctx = Protocol.pid ctx.p
let nprocs ctx = (Protocol.machine ctx.p).Machine.cfg.Config.nprocs
let prng ctx = ctx.ps.Machine.prng

(* Inline-check costs vanish when checks are disabled (the "original
   sequential code" baseline of Table 1). *)
let ccost ctx c = if ctx.checks then c else 0

let flush ctx =
  if ctx.acc > 0 then begin
    let c = ctx.acc in
    ctx.acc <- 0;
    Protocol.charge ctx.p c
  end

(* Mirror of [Protocol.op_tick] for the fused path: the accumulator must
   be settled before the poll's scheduling point so the yield (and any
   message handling it triggers) happens at the reference clock. *)
let fast_op_tick ctx =
  let ps = ctx.ps in
  ps.Machine.ops_since_poll <- ps.Machine.ops_since_poll + 1;
  if ps.Machine.ops_since_poll >= ctx.tmg.Timing.poll_interval_ops then begin
    ps.Machine.ops_since_poll <- 0;
    flush ctx;
    if ctx.checks then Protocol.charge ctx.p ctx.tmg.Timing.poll;
    Protocol.poll ctx.p
  end

(* Per-pair run-ahead lookahead (see Engine.run): processors in the same
   coherence node share memory images, state tables and miss entries, so
   their interactions carry no minimum delay. Any other pair can only
   interact through the network, whose cheapest message costs the
   zero-byte transfer time of their link class (intra-node queues for
   processors colocated on a physical node, the remote link
   otherwise). *)
let lookahead_matrix m =
  let cfg = m.Machine.cfg in
  let n = cfg.Config.nprocs in
  Array.init (n * n) (fun k ->
      let p = k / n and q = k mod n in
      if p = q || Machine.node_of m p = Machine.node_of m q then 0
      else
        let same_node = Shasta_net.Topology.same_node m.Machine.topo p q in
        Shasta_net.Link.transfer_cycles cfg.Config.link ~same_node ~size:0)

let run ?(run_ahead = true) ?(events = []) h body =
  assert (not h.ran);
  h.ran <- true;
  let cfg = h.m.Machine.cfg in
  let m = h.m in
  let outcome =
    Engine.run ~nprocs:cfg.Config.nprocs ~max_cycles:cfg.Config.max_cycles
      ~run_ahead
      ~arrivals:(Network.arrivals m.Machine.net)
      ~lookahead:(lookahead_matrix m) ~events
      (fun eng ->
        let p = Protocol.make_ctx m eng in
        let ctx = make_ctx m p ~fast:true in
        body ctx;
        flush ctx;
        Protocol.drain p)
  in
  h.sched <- Some outcome

let run_controlled ?(events = []) ~choose h body =
  assert (not h.ran);
  h.ran <- true;
  let cfg = h.m.Machine.cfg in
  let outcome =
    Engine.run_controlled ~nprocs:cfg.Config.nprocs
      ~max_cycles:cfg.Config.max_cycles ~events ~choose
      (fun eng ->
        let p = Protocol.make_ctx h.m eng in
        (* The controlled scheduler explores interleavings at every
           scheduling point; keep the reference per-access path so it
           sees all of them. *)
        let ctx = make_ctx h.m p ~fast:false in
        body ctx;
        flush ctx;
        Protocol.drain p)
  in
  h.sched <- Some outcome

let sched_counts h =
  match h.sched with
  | None -> (0, 0)
  | Some o -> (o.Engine.yields_performed, o.Engine.yields_elided)

let sched_sites h =
  match h.sched with
  | None -> { Engine.poll = 0; group = 0; self = 0; global = 0 }
  | Some o -> o.Engine.yields_by_site

let now ctx =
  flush ctx;
  Engine.now (Protocol.engine_proc ctx.p)

let add_observer h o = Machine.add_observer h.m o

(* Application-level access hooks for the happens-before race detector:
   fired once per simulated load/store after the access completes, never
   charging cycles (see Observer). Only reachable on the reference path
   ([fast] forces itself off when an observer is installed). *)
let obs_load ctx ~addr ~len =
  match (Protocol.machine ctx.p).Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_load ~proc:(pid ctx) ~addr ~len ~now:(now ctx)

let obs_store ctx ~addr ~len =
  match (Protocol.machine ctx.p).Machine.observer with
  | None -> ()
  | Some o -> o.Observer.on_store ~proc:(pid ctx) ~addr ~len ~now:(now ctx)

let compute ctx n =
  if ctx.fast then begin
    ctx.acc <- ctx.acc + n;
    if not ctx.in_batch then fast_op_tick ctx
  end
  else begin
    Protocol.charge ctx.p n;
    if not ctx.in_batch then Protocol.op_tick ctx.p
  end

let check_addr ctx addr =
  assert (Layout.valid_addr ctx.layout addr && addr land 7 = 0)

(* Flag comparison constants for the type-specialized fast paths (no
   int64 round trip per access): the flag pattern is neither a NaN nor
   ±0.0, so float equality against [flag_float] coincides exactly with
   bit equality against the flag — including the reference's treatment
   of application data that happens to equal the pattern (a false miss).
   Bits 63 and 62 of the pattern agree, so [Int64.to_int] sign-extends
   back to the full pattern and int equality against [flag_int]
   coincides with bit equality too. *)
let flag_float = Int64.float_of_bits Image.invalid_flag64
let flag_int = Int64.to_int Image.invalid_flag64

(* Resolve a flag hit the reference way: re-load, enter the miss
   handler, retry on transient outcomes. Shared by the reference load
   and the fused load's fallback. *)
let rec load_flag_loop ctx addr =
  let v = Image.load64 ctx.image addr in
  if not (Image.is_flag64 v) then v
  else
    match Protocol.load_miss ctx.p ~addr with
    | `Valid -> Image.load64 ctx.image addr
    | `Retry ->
      Protocol.charge ctx.p (ccost ctx ctx.tmg.Timing.load_check_flag);
      load_flag_loop ctx addr

(* Flag-based load check: the loaded value doubles as the state check.
   Equality with the flag pattern sends us into the miss handler, which
   distinguishes real misses from false misses. *)
let load64_ref ctx ~float_load addr =
  check_addr ctx addr;
  assert (not ctx.in_batch);
  let st = ctx.st in
  Protocol.op_tick ctx.p;
  Protocol.charge ctx.p
    (if float_load then ctx.c_load_float else ctx.c_load_int);
  st.Stats.checks <- st.Stats.checks + 1;
  st.Stats.accesses <- st.Stats.accesses + 1;
  let v = load_flag_loop ctx addr in
  obs_load ctx ~addr ~len:8;
  v

let store64_ref ctx addr v =
  check_addr ctx addr;
  assert (not ctx.in_batch);
  let st = ctx.st in
  Protocol.op_tick ctx.p;
  Protocol.charge ctx.p ctx.c_store;
  st.Stats.checks <- st.Stats.checks + 1;
  st.Stats.accesses <- st.Stats.accesses + 1;
  let line = Layout.line_of ctx.layout addr in
  (if State_table.get ctx.ctable line = State_table.Exclusive then
     Image.store64 ctx.image addr v
   else
     Protocol.store_miss ctx.p ~addr ~len:8 (fun img ->
         Image.store64 img addr v));
  obs_store ctx ~addr ~len:8

(* Fused-path bookkeeping shared by every checked access: poll tick
   first (exactly where the reference ticks), then bank the inline-check
   cost. *)
let[@inline] fast_access_prologue ctx cost =
  fast_op_tick ctx;
  ctx.acc <- ctx.acc + cost;
  let st = ctx.st in
  st.Stats.checks <- st.Stats.checks + 1;
  st.Stats.accesses <- st.Stats.accesses + 1

let load_float ctx addr =
  if ctx.fast then begin
    check_addr ctx addr;
    assert (not ctx.in_batch);
    fast_access_prologue ctx ctx.c_load_float;
    let v = Image.load_float ctx.image addr in
    if v <> flag_float then begin
      ctx.st.Stats.fast_hits <- ctx.st.Stats.fast_hits + 1;
      v
    end
    else begin
      flush ctx;
      Int64.float_of_bits (load_flag_loop ctx addr)
    end
  end
  else Int64.float_of_bits (load64_ref ctx ~float_load:true addr)

let load_int ctx addr =
  if ctx.fast then begin
    check_addr ctx addr;
    assert (not ctx.in_batch);
    fast_access_prologue ctx ctx.c_load_int;
    let v = Image.load_int ctx.image addr in
    if v <> flag_int then begin
      ctx.st.Stats.fast_hits <- ctx.st.Stats.fast_hits + 1;
      v
    end
    else begin
      flush ctx;
      Int64.to_int (load_flag_loop ctx addr)
    end
  end
  else Int64.to_int (load64_ref ctx ~float_load:false addr)

(* The store check needs clean Exclusive: the base state alone is what
   the reference consults, but a reference store hit cannot coexist with
   transient markers on this line's byte anyway, and testing the whole
   byte keeps this a single compare. *)
let[@inline] fast_store_hit ctx addr =
  let line = Layout.line_of ctx.layout addr in
  State_table.clean_geq ctx.ctable line State_table.Exclusive

let store_float ctx addr v =
  if ctx.fast then begin
    check_addr ctx addr;
    assert (not ctx.in_batch);
    fast_access_prologue ctx ctx.c_store;
    if fast_store_hit ctx addr then begin
      ctx.st.Stats.fast_hits <- ctx.st.Stats.fast_hits + 1;
      Image.store_float ctx.image addr v
    end
    else begin
      flush ctx;
      let line = Layout.line_of ctx.layout addr in
      if State_table.get ctx.ctable line = State_table.Exclusive then
        Image.store_float ctx.image addr v
      else
        Protocol.store_miss ctx.p ~addr ~len:8 (fun img ->
            Image.store_float img addr v)
    end
  end
  else store64_ref ctx addr (Int64.bits_of_float v)

let store_int ctx addr v =
  if ctx.fast then begin
    check_addr ctx addr;
    assert (not ctx.in_batch);
    fast_access_prologue ctx ctx.c_store;
    if fast_store_hit ctx addr then begin
      ctx.st.Stats.fast_hits <- ctx.st.Stats.fast_hits + 1;
      Image.store_int ctx.image addr v
    end
    else begin
      flush ctx;
      let line = Layout.line_of ctx.layout addr in
      if State_table.get ctx.ctable line = State_table.Exclusive then
        Image.store_int ctx.image addr v
      else
        Protocol.store_miss ctx.p ~addr ~len:8 (fun img ->
            Image.store_int img addr v)
    end
  end
  else store64_ref ctx addr (Int64.of_int v)

(* Reference batch window: collect the declared ranges, enter the
   protocol's batch machinery (mark lines, fetch what's missing,
   register write pieces), run the body, then unwind (replay pieces
   whose blocks lost exclusivity, unmark, stamp deferred flags). *)
let batch_slow ctx ranges f =
  ctx.declared <- ranges;
  let ranges =
    List.map
      (fun (addr, len, a) ->
        check_addr ctx addr;
        ( addr,
          len,
          match a with R -> State_table.Shared | W -> State_table.Exclusive ))
      ranges
  in
  let token = Protocol.batch_begin ctx.p ranges in
  ctx.in_batch <- true;
  Fun.protect
    ~finally:(fun () ->
      ctx.in_batch <- false;
      flush ctx;
      Protocol.batch_end ctx.p token)
    f

(* Fused batch pre-check: every line covered by [ranges] must be clean
   at its range's needed state — and on SMP clean in the node's shared
   table too, since a private-Exclusive line whose node state carries a
   pending downgrade is exactly the §3.4.3 race the batch-end replay
   exists for. Returns the distinct covered-line count (the reference
   charge multiplier), or -1 if any line fails.

   When every line passes, the whole batch_begin/batch_end round trip is
   skipped: begin would find nothing missing and could not stall, so the
   batch markers and write-piece registrations protect against nothing —
   no other processor gets a turn between here and the window's end
   (batch bodies contain no scheduling points), and batch_end's replay
   condition is provably false for a window that never stalled with a
   clean node state. *)
let fast_batch_lines ctx ranges =
  let nr = List.length ranges in
  if Array.length ctx.iv_first < nr then begin
    ctx.iv_first <- Array.make (2 * nr) 0;
    ctx.iv_last <- Array.make (2 * nr) 0
  end;
  let iv_first = ctx.iv_first and iv_last = ctx.iv_last in
  let ok = ref true in
  let i = ref 0 in
  List.iter
    (fun (addr, len, a) ->
      check_addr ctx addr;
      assert (len > 0);
      let need =
        match a with R -> State_table.Shared | W -> State_table.Exclusive
      in
      let first = Layout.line_of ctx.layout addr in
      let last = Layout.line_of ctx.layout (addr + len - 1) in
      iv_first.(!i) <- first;
      iv_last.(!i) <- last;
      incr i;
      if !ok then begin
        let l = ref first in
        while !ok && !l <= last do
          if
            not
              (State_table.clean_geq ctx.ctable !l need
              && ((not ctx.smp) || State_table.clean_geq ctx.ntable !l need))
          then ok := false;
          incr l
        done
      end)
    ranges;
  if not !ok then -1
  else begin
    (* Distinct covered lines: insertion-sort the intervals by first
       line (ranges per batch are few), then sweep. *)
    for a = 1 to nr - 1 do
      let f = iv_first.(a) and l = iv_last.(a) in
      let b = ref (a - 1) in
      while !b >= 0 && iv_first.(!b) > f do
        iv_first.(!b + 1) <- iv_first.(!b);
        iv_last.(!b + 1) <- iv_last.(!b);
        decr b
      done;
      iv_first.(!b + 1) <- f;
      iv_last.(!b + 1) <- l
    done;
    let count = ref 0 and hi = ref min_int in
    for a = 0 to nr - 1 do
      if iv_last.(a) > !hi then begin
        let f = if iv_first.(a) > !hi + 1 then iv_first.(a) else !hi + 1 in
        count := !count + iv_last.(a) - f + 1;
        hi := iv_last.(a)
      end
    done;
    !count
  end

let batch ctx ranges f =
  assert (not ctx.in_batch);
  if ctx.fast then begin
    fast_op_tick ctx;
    let nlines = fast_batch_lines ctx ranges in
    if nlines >= 0 then begin
      ctx.acc <-
        ctx.acc + (ctx.c_per_line * nlines)
        + (ctx.c_per_range * List.length ranges);
      let st = ctx.st in
      st.Stats.checks <- st.Stats.checks + nlines;
      st.Stats.fast_hits <- st.Stats.fast_hits + nlines;
      ctx.in_batch <- true;
      Fun.protect ~finally:(fun () -> ctx.in_batch <- false) f
    end
    else begin
      flush ctx;
      batch_slow ctx ranges f
    end
  end
  else begin
    Protocol.op_tick ctx.p;
    batch_slow ctx ranges f
  end

(* Under the sanitizer, the reference path holds every raw access to
   its batch's declaration (§3.4.4): 8-byte aligned, all 8 bytes inside
   one declared range, and a store inside a range declared [W]. *)
let check_raw ctx ~store addr =
  let inside (a, len, _) = a <= addr && addr + 8 <= a + len in
  let writable ((_, _, a) as r) = a = W && inside r in
  let fault =
    if addr land 7 <> 0 then Some "misaligned"
    else if not (List.exists inside ctx.declared) then
      Some "outside the declared ranges"
    else if store && not (List.exists writable ctx.declared) then
      Some "into a range declared R"
    else None
  in
  match fault with
  | None -> ()
  | Some why ->
    let m = Protocol.machine ctx.p in
    let block =
      if Layout.valid_addr ctx.layout addr then Machine.block_base m addr
      else addr
    in
    raise
      (Inspect.Violation
         [
           {
             Inspect.block;
             subject = Inspect.Proc (pid ctx);
             what =
               Printf.sprintf "raw %s at %#x %s"
                 (if store then "store" else "load")
                 addr why;
           };
         ])

module Batch = struct
  let raw_cost = 1

  let load_float ctx addr =
    assert (ctx.in_batch);
    ctx.st.Stats.accesses <- ctx.st.Stats.accesses + 1;
    if ctx.fast then begin
      ctx.acc <- ctx.acc + raw_cost;
      Image.load_float ctx.image addr
    end
    else begin
      if ctx.sanitize then check_raw ctx ~store:false addr;
      Protocol.charge ctx.p raw_cost;
      let v = Image.load_float ctx.image addr in
      obs_load ctx ~addr ~len:8;
      v
    end

  let store_float ctx addr v =
    assert (ctx.in_batch);
    ctx.st.Stats.accesses <- ctx.st.Stats.accesses + 1;
    if ctx.fast then begin
      ctx.acc <- ctx.acc + raw_cost;
      Image.store_float ctx.image addr v
    end
    else begin
      if ctx.sanitize then check_raw ctx ~store:true addr;
      Protocol.charge ctx.p raw_cost;
      Image.store_float ctx.image addr v;
      obs_store ctx ~addr ~len:8
    end

  let load_int ctx addr =
    assert (ctx.in_batch);
    ctx.st.Stats.accesses <- ctx.st.Stats.accesses + 1;
    if ctx.fast then begin
      ctx.acc <- ctx.acc + raw_cost;
      Image.load_int ctx.image addr
    end
    else begin
      if ctx.sanitize then check_raw ctx ~store:false addr;
      Protocol.charge ctx.p raw_cost;
      let v = Image.load_int ctx.image addr in
      obs_load ctx ~addr ~len:8;
      v
    end

  let store_int ctx addr v =
    assert (ctx.in_batch);
    ctx.st.Stats.accesses <- ctx.st.Stats.accesses + 1;
    if ctx.fast then begin
      ctx.acc <- ctx.acc + raw_cost;
      Image.store_int ctx.image addr v
    end
    else begin
      if ctx.sanitize then check_raw ctx ~store:true addr;
      Protocol.charge ctx.p raw_cost;
      Image.store_int ctx.image addr v;
      obs_store ctx ~addr ~len:8
    end
end

(* Kernels (§3.4.1): an app's innermost loop body as one closure over
   three base addresses, a scalar and host scratch. [run] counts the
   accesses a kernel issues into [Stats.prog_accesses], so reports can
   say how much traffic the kernels carry. *)
module Prog = struct
  type t =
    ctx -> s:float -> aux:float array -> base0:int -> base1:int -> base2:int ->
    unit

  let no_aux : float array = [||]

  (* dst[c] <- dst[c] - s * src[c] for c in [0, len): the daxpy inner
     row of blocked LU, raw accesses inside the caller's batch. *)
  let fms_row ~len ~cost : t =
   fun ctx ~s ~aux:_ ~base0 ~base1 ~base2:_ ->
    for c = 0 to len - 1 do
      let off = 8 * c in
      let v = Batch.load_float ctx (base1 + off) in
      let d = Batch.load_float ctx (base0 + off) in
      Batch.store_float ctx (base0 + off) (d -. (s *. v));
      compute ctx cost
    done

  let run ctx (k : t) ~s ~aux ~base0 ~base1 ~base2 =
    let st = ctx.st in
    let before = st.Stats.accesses in
    k ctx ~s ~aux ~base0 ~base1 ~base2;
    st.Stats.prog_accesses <-
      st.Stats.prog_accesses + (st.Stats.accesses - before)
end

let lock ctx l =
  assert (not ctx.in_batch);
  flush ctx;
  Protocol.lock_acquire ctx.p l

let unlock ctx l =
  assert (not ctx.in_batch);
  flush ctx;
  Protocol.lock_release ctx.p l

let barrier ctx b =
  assert (not ctx.in_batch);
  flush ctx;
  Protocol.barrier_wait ctx.p b

let parallel_cycles h = Machine.parallel_cycles h.m

let proc_stats h = Array.map (fun p -> p.Machine.stats) h.m.Machine.procs

let aggregate_stats h = Stats.aggregate (Array.to_list (proc_stats h))

let downgrade_messages h =
  Array.fold_left
    (fun acc p -> acc + p.Machine.stats.Stats.downgrades_sent)
    0 h.m.Machine.procs

let messages_local h = Network.sent_local h.m.Machine.net
let messages_remote h = Network.sent_remote h.m.Machine.net
