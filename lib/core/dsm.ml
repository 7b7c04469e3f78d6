module Engine = Shasta_sim.Engine
module Image = Shasta_mem.Image
module State_table = Shasta_mem.State_table
module Layout = Shasta_mem.Layout
module Network = Shasta_net.Network

type handle = { m : Machine.t; mutable ran : bool; mutable sched : int * int }

let create cfg = { m = Machine.create cfg; ran = false; sched = (0, 0) }
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
   mid-run is raised at the flush instead of mid-access, at the same
   virtual cycle the fused [Prog] charge (PR 6) already established as
   the contract. *)
type ctx = {
  p : Protocol.ctx;
  mutable in_batch : bool;
  fast : bool;
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
      ~arrival_hint:(Machine.earliest_arrival m)
      ~lookahead:(lookahead_matrix m) ~events
      (fun eng ->
        let p = Protocol.make_ctx m eng in
        let ctx = make_ctx m p ~fast:true in
        body ctx;
        flush ctx;
        Protocol.drain p)
  in
  h.sched <- (outcome.Engine.yields_performed, outcome.Engine.yields_elided)

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
  h.sched <- (outcome.Engine.yields_performed, outcome.Engine.yields_elided)

let sched_counts h = h.sched

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

type access = R | W

(* Reference batch window: collect the declared ranges, enter the
   protocol's batch machinery (mark lines, fetch what's missing,
   register write pieces), run the body, then unwind (replay pieces
   whose blocks lost exclusivity, unmark, stamp deferred flags). *)
let batch_slow ctx ranges f =
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
      Protocol.charge ctx.p raw_cost;
      Image.store_int ctx.image addr v;
      obs_store ctx ~addr ~len:8
    end
end

(* Access programs (§3.4.1 batched checks taken to their limit): a
   per-block access sequence compiled once into a flat int array and
   interpreted in a tight loop, replacing per-access closure dispatch.
   Raw programs ([Ldf]/[Stf]) run inside a batch window against the node
   image directly; checked programs ([Cldf]/[Cstf]) run outside batches
   and route every access through the ordinary checked load/store (which
   is itself fused when the fast path is on). Two interpreters: with an
   observer installed the per-op loop charges and fires hooks exactly as
   the equivalent closure would (cycle- and event-identical); without
   one, memory traffic runs back-to-back and a raw program's cycles are
   charged in one lump — same total, same virtual finish time, no
   mid-program scheduling points. The fusion leans on the batch
   contract: nothing may race with the batched ranges for the batch's
   duration, so nobody can observe the intermediate timing. *)
module Prog = struct
  type instr =
    | Ldf of int * int * int  (** reg <- raw float at base(b) + off *)
    | Stf of int * int * int  (** raw float at base(b) + off <- reg *)
    | Cldf of int * int * int  (** reg <- checked float load *)
    | Cstf of int * int * int  (** checked float store *)
    | Fms of int * int  (** r(a) <- r(a) -. s *. r(b) *)
    | Add of int * int * int  (** r(a) <- r(b) +. r(c) *)
    | Sub of int * int * int  (** r(a) <- r(b) -. r(c) *)
    | Mul of int * int * int  (** r(a) <- r(b) *. r(c) *)
    | Mulk of int * int * int  (** r(a) <- r(b) *. consts.(k) *)
    | Movk of int * int  (** r(a) <- consts.(k) *)
    | Auxld of int * int  (** r(a) <- aux.(i) *)
    | Auxst of int * int  (** aux.(i) <- r(a) *)
    | Wrap of int * int  (** periodic wrap of r(a) into [0, consts.(k)) *)
    | Charge of int  (** charge n cycles *)

  type t = {
    code : int array;
    regs : float array;
    consts : float array;
    raw : bool;
    checked : bool;
  }

  exception Prog_violation of { op : string; pc : int; detail : string }

  let violation ~op ~pc detail = raise (Prog_violation { op; pc; detail })

  let no_aux : float array = [||]

  (* Opcodes, stride 4: op, a, b, c. *)
  let op_ldf = 0
  let op_stf = 1
  let op_fms = 2
  let op_charge = 3
  let op_cldf = 4
  let op_cstf = 5
  let op_add = 6
  let op_sub = 7
  let op_mul = 8
  let op_mulk = 9
  let op_movk = 10
  let op_auxld = 11
  let op_auxst = 12
  let op_wrap = 13

  let compile ?(consts = no_aux) ~nregs instrs =
    let nconsts = Array.length consts in
    let reg r = if r < 0 || r >= nregs then invalid_arg "Prog.compile: reg" in
    let base b =
      if b < 0 || b > 2 then invalid_arg "Prog.compile: base index"
    in
    let konst k =
      if k < 0 || k >= nconsts then invalid_arg "Prog.compile: const index"
    in
    let raw = ref false and checked = ref false in
    let n = List.length instrs in
    let code = Array.make (4 * n) 0 in
    List.iteri
      (fun i instr ->
        let k = 4 * i in
        let emit op a b c =
          code.(k) <- op;
          code.(k + 1) <- a;
          code.(k + 2) <- b;
          code.(k + 3) <- c
        in
        match instr with
        | Ldf (r, b, off) -> reg r; base b; raw := true; emit op_ldf r b off
        | Stf (r, b, off) -> reg r; base b; raw := true; emit op_stf r b off
        | Cldf (r, b, off) ->
          reg r; base b; checked := true; emit op_cldf r b off
        | Cstf (r, b, off) ->
          reg r; base b; checked := true; emit op_cstf r b off
        | Fms (a, b) -> reg a; reg b; emit op_fms a b 0
        | Add (a, b, c) -> reg a; reg b; reg c; emit op_add a b c
        | Sub (a, b, c) -> reg a; reg b; reg c; emit op_sub a b c
        | Mul (a, b, c) -> reg a; reg b; reg c; emit op_mul a b c
        | Mulk (a, b, k) -> reg a; reg b; konst k; emit op_mulk a b k
        | Movk (a, k) -> reg a; konst k; emit op_movk a k 0
        | Auxld (a, i) ->
          reg a;
          if i < 0 then invalid_arg "Prog.compile: aux index";
          emit op_auxld a i 0
        | Auxst (a, i) ->
          reg a;
          if i < 0 then invalid_arg "Prog.compile: aux index";
          emit op_auxst a i 0
        | Wrap (a, k) -> reg a; konst k; emit op_wrap a k 0
        | Charge n ->
          if n < 0 then invalid_arg "Prog.compile: negative charge";
          emit op_charge n 0 0)
      instrs;
    if !raw && !checked then
      invalid_arg "Prog.compile: program mixes raw and checked accesses";
    { code; regs = Array.make nregs 0.0; consts; raw = !raw; checked = !checked }

  (* Introspection for the static verifier (Shasta_verify.Progcheck):
     a compiled program decodes back to the instruction list it was
     built from — [compile] is a bijection up to the flat encoding. *)
  let nregs t = Array.length t.regs
  let consts t = t.consts
  let uses_raw t = t.raw
  let uses_checked t = t.checked

  let decode t =
    let n = Array.length t.code / 4 in
    List.init n (fun i ->
        let k = 4 * i in
        let op = t.code.(k)
        and a = t.code.(k + 1)
        and b = t.code.(k + 2)
        and c = t.code.(k + 3) in
        if op = op_ldf then Ldf (a, b, c)
        else if op = op_stf then Stf (a, b, c)
        else if op = op_fms then Fms (a, b)
        else if op = op_charge then Charge a
        else if op = op_cldf then Cldf (a, b, c)
        else if op = op_cstf then Cstf (a, b, c)
        else if op = op_add then Add (a, b, c)
        else if op = op_sub then Sub (a, b, c)
        else if op = op_mul then Mul (a, b, c)
        else if op = op_mulk then Mulk (a, b, c)
        else if op = op_movk then Movk (a, b)
        else if op = op_auxld then Auxld (a, b)
        else if op = op_auxst then Auxst (a, b)
        else if op = op_wrap then Wrap (a, b)
        else
          violation ~op:(string_of_int op) ~pc:i "unknown opcode in decode")

  let fms_row ~len ~cost =
    (* dst[c] <- dst[c] - s * src[c] for c in [0, len): the daxpy inner
       row of blocked LU. Ops are emitted in the evaluation order of the
       closure formulation (src load, dst load, multiply-subtract, dst
       store, flop charge) so the observed interpreter replays its event
       stream exactly. *)
    let instrs =
      List.concat
        (List.init len (fun j ->
             let off = 8 * j in
             [ Ldf (0, 1, off); Ldf (1, 0, off); Fms (1, 0);
               Stf (1, 0, off); Charge cost ]))
    in
    compile ~nregs:2 instrs

  let run ctx t ~s ~aux ~base0 ~base1 ~base2 =
    assert ((not t.raw) || ctx.in_batch);
    assert ((not t.checked) || not ctx.in_batch);
    let code = t.code and regs = t.regs and consts = t.consts in
    let n = Array.length code in
    let st = ctx.st in
    let base b = if b = 0 then base0 else if b = 1 then base1 else base2 in
    match (Protocol.machine ctx.p).Machine.observer with
    | Some _ ->
      (* Per-op reference dispatch: exactly the charges and hooks the
         closure formulation produces. *)
      let k = ref 0 in
      while !k < n do
        let a = code.(!k + 1) and b = code.(!k + 2) and c = code.(!k + 3) in
        (match code.(!k) with
        | 0 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          regs.(a) <- Batch.load_float ctx (base b + c)
        | 1 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          Batch.store_float ctx (base b + c) regs.(a)
        | 2 -> regs.(a) <- regs.(a) -. (s *. regs.(b))
        | 3 -> compute ctx a
        | 4 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          regs.(a) <- load_float ctx (base b + c)
        | 5 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          store_float ctx (base b + c) regs.(a)
        | 6 -> regs.(a) <- regs.(b) +. regs.(c)
        | 7 -> regs.(a) <- regs.(b) -. regs.(c)
        | 8 -> regs.(a) <- regs.(b) *. regs.(c)
        | 9 -> regs.(a) <- regs.(b) *. consts.(c)
        | 10 -> regs.(a) <- consts.(b)
        | 11 -> regs.(a) <- aux.(b)
        | 12 -> aux.(b) <- regs.(a)
        | 13 ->
          let q = regs.(a) and box = consts.(b) in
          regs.(a) <-
            (if q < 0.0 then q +. box
             else if q >= box then q -. box
             else q)
        | op ->
          violation ~op:(string_of_int op) ~pc:(!k / 4)
            "unknown opcode (observed interpreter)");
        k := !k + 4
      done
    | None ->
      let img = ctx.image in
      let total = ref 0 in
      let k = ref 0 in
      while !k < n do
        let a = code.(!k + 1) and b = code.(!k + 2) and c = code.(!k + 3) in
        (match code.(!k) with
        | 0 ->
          st.Stats.accesses <- st.Stats.accesses + 1;
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          regs.(a) <- Image.load_float img (base b + c);
          total := !total + Batch.raw_cost
        | 1 ->
          st.Stats.accesses <- st.Stats.accesses + 1;
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          Image.store_float img (base b + c) regs.(a);
          total := !total + Batch.raw_cost
        | 2 -> regs.(a) <- regs.(a) -. (s *. regs.(b))
        | 3 -> if ctx.in_batch then total := !total + a else compute ctx a
        | 4 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          regs.(a) <- load_float ctx (base b + c)
        | 5 ->
          st.Stats.prog_accesses <- st.Stats.prog_accesses + 1;
          store_float ctx (base b + c) regs.(a)
        | 6 -> regs.(a) <- regs.(b) +. regs.(c)
        | 7 -> regs.(a) <- regs.(b) -. regs.(c)
        | 8 -> regs.(a) <- regs.(b) *. regs.(c)
        | 9 -> regs.(a) <- regs.(b) *. consts.(c)
        | 10 -> regs.(a) <- consts.(b)
        | 11 -> regs.(a) <- aux.(b)
        | 12 -> aux.(b) <- regs.(a)
        | 13 ->
          let q = regs.(a) and box = consts.(b) in
          regs.(a) <-
            (if q < 0.0 then q +. box
             else if q >= box then q -. box
             else q)
        | op ->
          violation ~op:(string_of_int op) ~pc:(!k / 4)
            "unknown opcode (fused interpreter)");
        k := !k + 4
      done;
      (* One fused charge for the in-batch traffic; a [Cycle_limit] for
         a budget exhausted mid-program is raised here, at the program's
         end clock. Banked like any other raw access when fused. *)
      if !total > 0 then begin
        if ctx.fast then ctx.acc <- ctx.acc + !total
        else Protocol.charge ctx.p !total
      end
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
