type _ Effect.t += Yield : unit Effect.t

type status =
  | Fresh
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

type scope = Group | Self | Global

(* State shared by the processors of one [run] (a run is single-domain:
   its coroutines interleave, never overlap), never by two runs — which
   is what makes concurrent [run]s on separate domains race-free. *)
type proc = {
  p_id : int;
  p_nprocs : int;
  mutable p_now : int;
  mutable p_status : status;
  mutable p_horizon : int;
  mutable p_resumed_at : int;
      (* Clock at which the run-ahead scheduler last resumed this
         processor ([min_int] under the always-yield schedulers, so the
         elision below never fires there). A yield requested while the
         clock still equals it is a guaranteed self-resume — see the
         comment on [yield]. *)
  p_group : int;
      (* This processor's zero-lookahead class (the least pid in it): the
         processors that may see each other's writes at no delay. *)
  mutable p_park_at : int;
      (* The clock the advance after the latest [idle_skip] lands on. *)
  mutable p_scope : scope;  (* The latest [idle_skip]'s wait scope. *)
  mutable p_parked : bool;
      (* Suspended by the advance after [idle_skip]: resumed, it is still
         inside its wait loop. *)
  mutable p_frozen : bool;
      (* Parked, and either not [Group]-scoped or untouched since it
         parked. *)
  mutable p_asleep : bool;
      (* A frozen [Self] waiter with nothing queued, out of the run
         queue until [sent] pushes it back. *)
  p_max_cycles : int;
  p_run : shared;
}

and shared = {
  mutable performed : int;
  mutable elided : int;
  wait_ends : int array;
      (* Performed yields that ended a wait iteration, per [scope]
         ([scope_index]). *)
  mutable tasks : proc array;
  lookahead : int array;
      (* Flat [nprocs * nprocs], closed under the triangle inequality. *)
  tie_la : int array;  (* [lookahead] as horizon keys; see [horizon_of]. *)
  arrivals : int array;
      (* Per destination, a lower bound on its earliest queued arrival. *)
  hterm : int array;
  vterm : int array;
      (* Per processor, its term in the other processors' horizons and
         visibility bounds: its clock, [far] while it runs or after it
         finishes, or its frozen term (see [touch]). *)
  members : int array array;  (* Per group (indexed by its least pid). *)
  key : int array;
      (* Per processor, its run-queue key: its frozen term while it is
         a parked [Self] waiter, its clock otherwise. *)
  heap : int array;
  mutable queued : int;
      (* The run queue: [heap.(0 .. queued - 1)] is a binary min-heap of
         pids on (key, pid) (see [Runq]). *)
  run_ahead : bool;
}

type sites = { poll : int; group : int; self : int; global : int }

type outcome = {
  finish : int array;
  yields_performed : int;
  yields_elided : int;
  yields_by_site : sites;
}

let scope_index = function Group -> 0 | Self -> 1 | Global -> 2

exception Cycle_limit of int

let pid p = p.p_id
let nprocs p = p.p_nprocs
let now p = p.p_now

let advance_local p c =
  assert (c >= 0);
  p.p_now <- p.p_now + c;
  if p.p_now > p.p_max_cycles then raise (Cycle_limit p.p_id)

(* Run-ahead (conservative-PDES lookahead): between two scheduling
   points of processor [p], no other processor executes — their clocks
   and statuses are frozen. [p_horizon] is a virtual time strictly below
   which nothing any other processor does can become visible to [p]
   (see [run] for how it is computed), so scheduling points below the
   horizon elide the yield effect — the continuation switch, scheduler
   re-entry and re-pick — entirely and just keep running. Yielding
   MORE often than necessary is always safe (the scheduler observes an
   unchanged minimum and resumes the same processor), so any
   conservative under-estimate of the horizon preserves the simulation
   exactly; only an over-estimate could reorder visible events. *)

(* Besides the horizon rule, a yield is elided when the clock has not
   advanced since the scheduler resumed this processor: popping [p] froze
   every peer's clock and status, a running processor never enqueues a
   message to itself ([Protocol.deliver] handles those inline), so
   re-performing would recompute the identical horizon and pop the
   unique (key, pid) minimum — [p] itself — right back. A protocol
   operation typically issues several scheduling points at one virtual
   time (the flush charge, the poll charge, the poll probe), and this
   collapses them into at most one continuation switch. *)
let yield p =
  if p.p_now >= p.p_horizon && p.p_now <> p.p_resumed_at then begin
    p.p_run.performed <- p.p_run.performed + 1;
    Effect.perform Yield
  end
  else p.p_run.elided <- p.p_run.elided + 1

let advance p c =
  advance_local p c;
  if p.p_now >= p.p_horizon && p.p_now <> p.p_resumed_at then begin
    p.p_run.performed <- p.p_run.performed + 1;
    Effect.perform Yield
  end
  else p.p_run.elided <- p.p_run.elided + 1

(* Resume [p] under a deep handler that parks the continuation on Yield.
   The handler returns control to the scheduler loop after each effect.
   Its Yield case is built once per processor, so a performed yield
   allocates only the continuation and its [Suspended] cell. *)
let step body p =
  match p.p_status with
  | Finished | Running -> assert false
  | Suspended k ->
    p.p_status <- Running;
    Effect.Deep.continue k ()
  | Fresh ->
    p.p_status <- Running;
    let park : ((unit, unit) Effect.Deep.continuation -> unit) option =
      Some (fun k -> p.p_status <- Suspended k)
    in
    let open Effect.Deep in
    match_with
      (fun () -> body p)
      ()
      {
        retc = (fun () -> p.p_status <- Finished);
        exnc = (fun e -> raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield -> (park : ((c, unit) continuation -> unit) option)
            | _ -> None);
      }

let live p =
  match p.p_status with
  | Finished -> false
  | Fresh | Suspended _ | Running -> true

(* Runnable set as a binary min-heap of pids on (key, pid) —
   lexicographic, so equal keys resume in processor-id order, exactly
   the tie-break of the original O(n) scan. A key is the processor's
   clock, except that a parked [Self] waiter is keyed by its frozen term
   (see [run]). A processor's clock only moves while it runs, and it is
   out of the heap while it runs or sleeps; a queued key changes only
   when [sent] lowers it, and [lower] restores the order. Capacity is
   nprocs; no allocation after creation, and the heap holds ints, so
   moving an entry is a plain store. *)
module Runq = struct
  (* Hot: one push + one pop per scheduler pick. Every heap index below
     is bounded by [queued <= capacity] (push asserts it) and every
     entry is a pid of [tasks], so the accesses skip the bounds checks. *)

  (* Does pid [a] run before pid [b]? *)
  let before r a b =
    let ka = Array.unsafe_get r.key a and kb = Array.unsafe_get r.key b in
    ka < kb || (ka = kb && a < b)

  let top r = Array.unsafe_get r.heap 0

  (* Move [pid] from slot [i] towards the root to its place. *)
  let sift_up r i pid =
    let heap = r.heap in
    let i = ref i in
    while !i > 0 && before r pid (Array.unsafe_get heap ((!i - 1) / 2)) do
      let parent = (!i - 1) / 2 in
      Array.unsafe_set heap !i (Array.unsafe_get heap parent);
      i := parent
    done;
    Array.unsafe_set heap !i pid

  let push r pid =
    assert (r.queued < Array.length r.heap);
    r.queued <- r.queued + 1;
    sift_up r (r.queued - 1) pid

  (* Queued [pid]'s key has just been lowered. Rare (a send that moves
     up a waiter whose earlier message is already queued), so a scan
     finds its slot rather than every move maintaining an index. *)
  let lower r pid =
    let i = ref 0 in
    while !i < r.queued && Array.unsafe_get r.heap !i <> pid do
      incr i
    done;
    assert (!i < r.queued);
    sift_up r !i pid

  let pop r =
    assert (r.queued > 0);
    let heap = r.heap in
    let m = Array.unsafe_get heap 0 in
    r.queued <- r.queued - 1;
    let last = Array.unsafe_get heap r.queued in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= r.queued then continue := false
      else begin
        let rt = l + 1 in
        let c =
          if
            rt < r.queued
            && before r (Array.unsafe_get heap rt) (Array.unsafe_get heap l)
          then rt
          else l
        in
        let pc = Array.unsafe_get heap c in
        if before r pc last then begin
          Array.unsafe_set heap !i pc;
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set heap !i last;
    m
end

(* The lookahead matrix closed under the triangle inequality (min-plus
   Floyd–Warshall): afterwards [la(p,r) <= la(p,q) + la(q,r)] for every
   triple. Closing only lowers entries, which is always safe, and the
   frozen-peer terms rely on it. *)
let close n la =
  let la = Array.copy la in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = la.((i * n) + k) + la.((k * n) + j) in
        if via < la.((i * n) + j) then la.((i * n) + j) <- via
      done
    done
  done;
  la

(* Each processor's zero-lookahead class, named by its least pid: the
   processors joined, transitively, by a zero entry in either direction
   — in [Dsm], the coherence nodes. *)
let groups n la =
  let g = Array.init n Fun.id in
  let rec root i = if g.(i) = i then i else root g.(i) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if la.((i * n) + j) = 0 then begin
        let a = root i and b = root j in
        if a <> b then g.(max a b) <- min a b
      end
    done
  done;
  Array.init n root

(* A term no virtual time reaches. [far] plus any lookahead entry still
   fits in an int, and a bound at or past [far] reads as [max_int], "no
   bound". *)
let far = max_int / 4

(* The run's processors, all [Fresh] at clock 0 and sharing one [shared]
   record. The horizon starts in the past — the always-yield setting,
   which [run_controlled] and [run ~run_ahead:false] keep throughout and
   [run] overwrites at every resume. *)
let make_tasks ~nprocs ~max_cycles ~run_ahead ~arrivals ~lookahead =
  assert (
    nprocs > 0
    && Array.length lookahead = nprocs * nprocs
    && Array.length arrivals = nprocs
    && Array.for_all (fun la -> 0 <= la && la < far) lookahead);
  let group = groups nprocs lookahead in
  let r =
    {
      performed = 0;
      elided = 0;
      wait_ends = Array.make 3 0;
      tasks = [||];
      lookahead;
      tie_la =
        Array.mapi
          (fun k la ->
            let wins = la = 0 && k mod nprocs > k / nprocs in
            (2 * la) + if wins then 1 else 0)
          lookahead;
      arrivals;
      hterm = Array.make nprocs 0;
      vterm = Array.make nprocs 0;
      members =
        Array.init nprocs (fun g ->
            Array.of_seq
              (Seq.filter (fun i -> group.(i) = g) (Seq.init nprocs Fun.id)));
      key = Array.make nprocs 0;
      heap = Array.make nprocs 0;
      queued = 0;
      run_ahead;
    }
  in
  r.tasks <-
    Array.init nprocs (fun i ->
        {
          p_id = i;
          p_nprocs = nprocs;
          p_now = 0;
          p_status = Fresh;
          p_horizon = min_int;
          p_resumed_at = min_int;
          p_group = group.(i);
          p_park_at = min_int;
          p_scope = Group;
          p_parked = false;
          p_frozen = false;
          p_asleep = false;
          p_max_cycles = max_cycles;
          p_run = r;
        });
  r.tasks

(* Frozen peers. A processor [parks] when the advance that follows its
   [idle_skip] performs the yield. A parked processor is frozen while
   nothing can have changed what its wait predicate reads: its next
   action can then only be handling a message (a pure re-check of an
   unchanged predicate changes nothing), which cannot happen before its
   own clock or its earliest queued arrival — its frozen term, [far]
   with nothing queued.

   - A [Self] wait reads only state its own message handlers write, so
     only a message to it can end it. It stays frozen until it is
     resumed, and its frozen term counts in every other processor's
     horizon as well as in [visible]. It is also queued by its frozen
     term, not its clock: every resume before that term would poll an
     empty queue and re-read an unchanged predicate. With nothing queued
     the term is [far], and it sleeps: it leaves the run queue until
     [sent] pushes it back.
   - A [Global] wait (the drain) reads state any processor may change,
     but leaving it changes nothing another processor reads. It counts
     in horizons as a [Self] waiter does, but no message marks its end,
     so it never sleeps: it wakes each time the other clocks pass its
     visibility bound.
   - A [Group] wait reads state its group shares, so every event that
     may change that state unfreezes the group's parked [Group] waiters
     ([touch]): a processor resumed while not parked (it may mutate its
     group's state before it next yields), a handled message, and a
     waiter leaving its wait loop. Its frozen term counts only in
     [visible]; in horizons it counts by its clock, so a touch during
     the runner's slice never has to lower the runner's horizon. *)
let frozen_term r q =
  let a = Array.unsafe_get r.arrivals q.p_id in
  if a >= far then far else Int.max q.p_now a

let touch p =
  let r = p.p_run in
  if r.run_ahead then begin
    let m = r.members.(p.p_group) in
    for k = 0 to Array.length m - 1 do
      let q = r.tasks.(m.(k)) in
      if q.p_frozen && q.p_scope = Group then begin
        q.p_frozen <- false;
        r.vterm.(q.p_id) <- q.p_now
      end
    done
  end

(* The horizon of [p]: the first virtual time at which [p] must hand
   control back to the scheduler. Its base is the earliest virtual time
   at which another processor's actions can become visible to [p],
   given that all other clocks are frozen while [p] runs:

   - A message already queued for [p] becomes visible at its arrival
     timestamp ([arrivals]).
   - Another live processor [q]'s next action happens no earlier than
     its horizon term — its clock, or its frozen term as a parked
     [Self] waiter — and becomes visible to [p] no earlier than
     [lookahead] cycles after that: the minimum virtual-time cost of any
     direct [q]-to-[p] interaction (0 when they share mutable state, the
     minimum message transfer time when the network is the only path
     between them).
   - Chains through an intermediary [r] need no extra terms: [r] acts
     no earlier than its own term, which bounds everything it will do,
     and a chain [s -> r -> p] is bounded by [s]'s own term because the
     matrix is closed under the triangle inequality.

   With an all-zero matrix and no frozen waiter the base degenerates to
   the second-lowest runnable clock — the exact no-lookahead horizon.

   A yield AT the base time [h] performs real work only when the
   scheduler would pick somebody else, i.e. when some contributor [q]
   of the minimum would act before [p] standing at [h]: any [q] with a
   positive lookahead sits strictly below its bound, and a
   zero-lookahead [q] at [h] wins the (key, pid) tie-break on a lower
   pid. A minimum contributed only by queued messages or by higher-pid
   zero-lookahead peers means [p] acts first at [h] — so [p] may keep
   running through [h] and the horizon is [h + 1].

   Both choices fold into one minimum over keys: [tie_la] holds
   [2 * lookahead] plus 1 where [p] wins the tie, so a bound [b] has key
   [2b] or [2b + 1] and the least key [k] gives the horizon
   [(k + 1) / 2]. *)
let of_key k = if k / 2 >= far then max_int else (k + 1) / 2

(* Hot: one call per scheduler pick. The unsafe reads are in range:
   [i < nprocs] and [row + i < nprocs * nprocs]. *)
let horizon_of p =
  let r = p.p_run in
  let n = p.p_nprocs in
  assert (Array.length r.hterm = n && Array.length r.tie_la = n * n);
  let row = p.p_id * n in
  let k = ref ((2 * Int.min (Array.unsafe_get r.arrivals p.p_id) far) + 1) in
  for i = 0 to n - 1 do
    let b =
      (2 * Array.unsafe_get r.hterm i) + Array.unsafe_get r.tie_la (row + i)
    in
    if b < !k then k := b
  done;
  of_key !k

(* [p], running, has queued a message for [dst]. A frozen [dst]'s term
   was computed from its earlier arrival and may now be lower; unless
   [dst] waits [Group]-scoped, so may [p]'s horizon, which was computed
   at resume from the old term. A [Self] waiter's run-queue key is that
   term: a sleeper goes back on the run queue at it, and a queued one
   moves up if it fell. Either way its next [idle_skip] reads the
   arrival. *)
let sent p ~dst =
  let r = p.p_run in
  let q = r.tasks.(dst) in
  if q.p_frozen then begin
    let t = frozen_term r q in
    r.vterm.(dst) <- t;
    if q.p_scope <> Group then begin
      r.hterm.(dst) <- t;
      let h = of_key ((2 * t) + r.tie_la.((p.p_id * p.p_nprocs) + dst)) in
      if h < p.p_horizon then p.p_horizon <- h;
      if q.p_scope = Self && t < r.key.(dst) then begin
        r.key.(dst) <- t;
        if q.p_asleep then begin
          q.p_asleep <- false;
          Runq.push r dst
        end
        else Runq.lower r dst
      end
    end
  end

(* The earliest virtual time at which anything another processor does
   can become visible to [p]: its own earliest queued arrival, and for
   every other processor its visibility term — its clock, or its frozen
   term ([far] for a processor that runs, has finished, or is frozen
   with nothing queued) — plus the pair's lookahead. Messages not yet
   sent are bounded by their senders' own terms: a chain [s -> q -> p]
   through a frozen [q] becomes visible no earlier than [s]'s clock
   plus [la(q,s) + la(p,q) >= la(p,s)]. Strictly below this bound a
   poll probe is empty and no state [p] can observe changes.

   Hot: one call per idle wait iteration. The scan stops once the bound
   is at or below [floor], where the caller skips nothing anyway. The
   unsafe reads are in range: [i < nprocs] and
   [row + i < nprocs * nprocs]. *)
let visible p ~floor =
  let r = p.p_run in
  let n = p.p_nprocs in
  assert (Array.length r.vterm = n && Array.length r.lookahead = n * n);
  let row = p.p_id * n in
  let v = ref (Array.unsafe_get r.arrivals p.p_id) in
  let i = ref 0 in
  while !i < n && !v > floor do
    let b =
      Array.unsafe_get r.vterm !i + Array.unsafe_get r.lookahead (row + !i)
    in
    if b < !v then v := b;
    incr i
  done;
  if !v >= far then max_int else !v

(* Cycles an idle spin loop may skip over in one step: a loop that
   re-checks state and polls every [quantum] cycles observes, at every
   lattice point strictly below [visible], exactly the state it sees
   now, so those iterations can be collapsed into a single advance of
   [quantum] plus the returned amount, landing on the first lattice
   point at or past the bound (0 extra when that is the very next
   point). Virtual-time behavior is bit-identical to stepping; only the
   wasted re-checks go away. Under the always-yield schedulers every
   iteration is stepped. *)
let idle_skip ?(scope = Group) p ~quantum =
  if not p.p_run.run_ahead then 0
  else begin
    let v = visible p ~floor:(p.p_now + quantum) in
    let d = v - p.p_now in
    let skip =
      if v = max_int || d <= quantum then 0
      else quantum * (((d + quantum - 1) / quantum) - 1)
    in
    p.p_park_at <- p.p_now + quantum + skip;
    p.p_scope <- scope;
    skip
  end

(* Crash events: a due-event pump, consulted before each resume, whose
   callbacks get a kill closure over the run's tasks.

   [kill] marks the processor [Finished] and DROPS its continuation
   without discontinuing. This is deliberate: discontinuing would unwind
   the fiber through any [Fun.protect] finalizers on its stack, and
   protocol finalizers (batch teardown) perform real protocol work —
   including [Yield] effects, which the still-installed handler would
   catch and re-park the processor, silently undoing the kill. A crash
   skips cleanup by definition; the orphaned fiber is reclaimed by the
   GC. *)
let event_pump tasks events =
  let kill pid =
    if pid < 0 || pid >= Array.length tasks then
      invalid_arg "Engine.kill: pid out of range";
    let t = tasks.(pid) in
    match t.p_status with
    | Running -> invalid_arg "Engine.kill: cannot kill the running processor"
    | Finished -> ()
    | Fresh | Suspended _ ->
      t.p_status <- Finished;
      t.p_run.hterm.(pid) <- far;
      t.p_run.vterm.(pid) <- far
  in
  let pending =
    ref (List.stable_sort (fun (a, _) (b, _) -> compare a b) events)
  in
  fun p ->
    let rec go () =
      match !pending with
      | (at, f) :: rest when p.p_now >= at ->
        pending := rest;
        f ~kill ~now:p.p_now;
        go ()
      | _ -> ()
    in
    go ()

let outcome tasks =
  let r = tasks.(0).p_run in
  let ends = r.wait_ends in
  let group = ends.(scope_index Group)
  and self = ends.(scope_index Self)
  and global = ends.(scope_index Global) in
  {
    finish = Array.map (fun p -> p.p_now) tasks;
    yields_performed = r.performed;
    yields_elided = r.elided;
    yields_by_site =
      { poll = r.performed - group - self - global; group; self; global };
  }

let run ~nprocs ?(max_cycles = 2_000_000_000) ?(run_ahead = true)
    ?(arrivals = [||]) ?(lookahead = [||]) ?(events = []) body =
  assert (
    Array.length lookahead = 0 || Array.length lookahead = nprocs * nprocs);
  assert (Array.length arrivals = 0 || Array.length arrivals = nprocs);
  let lookahead =
    if Array.length lookahead > 0 then close nprocs lookahead
    else Array.make (nprocs * nprocs) 0
  in
  let arrivals =
    if Array.length arrivals > 0 then arrivals else Array.make nprocs max_int
  in
  let has_events = events <> [] in
  (* A run with events is always-yield. Run-ahead would let processors
     execute past an event's time before the processor whose resume
     fires it is picked, and a kill or a recovery changes state outside
     the wake rules. *)
  let run_ahead = run_ahead && not has_events in
  let tasks = make_tasks ~nprocs ~max_cycles ~run_ahead ~arrivals ~lookahead in
  let r = tasks.(0).p_run in
  let fire_due = event_pump tasks events in
  Array.iter (fun p -> Runq.push r p.p_id) tasks;
  while r.queued > 0 do
    let p = tasks.(Runq.pop r) in
    (* A popped processor may have been killed by an event while parked
       in the heap; skip it. *)
    let running = ref (live p) in
    while !running do
      (* Crash events fire at the clock of the processor about to be
         resumed — the global minimum, so an event at virtual time [at]
         fires before any processor executes at-or-past [at]. The
         callback may kill processors, including [p] itself. *)
      if has_events then fire_due p;
      if not (live p) then running := false
      else begin
        (* With [run_ahead] off, the horizon stays in the past, so every
           scheduling point performs the effect and idle waits advance
           one quantum at a time, reproducing the always-yield scheduler
           switch-for-switch. *)
        if run_ahead then begin
          (* A processor resumed anywhere but in its idle wait may change
             its group's state before it next yields. *)
          if p.p_parked then begin
            p.p_parked <- false;
            p.p_frozen <- false
          end
          else touch p;
          (* A running processor bounds nobody: its own horizon covers
             what it does, and its terms stay [far] if it finishes. *)
          r.hterm.(p.p_id) <- far;
          r.vterm.(p.p_id) <- far;
          p.p_horizon <- horizon_of p;
          p.p_resumed_at <- p.p_now
        end;
        step body p;
        (* A Running status here means [step] returned without the task
           either finishing or suspending, which the handler construction
           rules out. *)
        match p.p_status with
        | Suspended _ ->
          (* Every scheduling point at one clock of a slice makes the
             same perform-or-elide decision, so a yield performed at the
             landing clock of the latest [idle_skip] is that skip's
             advance: it ends a wait iteration, and [p] parks. *)
          let ends_wait = p.p_now = p.p_park_at in
          if ends_wait then begin
            let i = scope_index p.p_scope in
            r.wait_ends.(i) <- r.wait_ends.(i) + 1
          end;
          if run_ahead && ends_wait then begin
            p.p_parked <- true;
            p.p_frozen <- true;
            let t = frozen_term r p in
            r.vterm.(p.p_id) <- t;
            r.hterm.(p.p_id) <- (if p.p_scope = Group then p.p_now else t);
            (* Only a message can end a [Self] wait: queue it by the
               earliest arrival, and with nothing queued only [sent]
               puts it back. *)
            r.key.(p.p_id) <- (if p.p_scope = Self then t else p.p_now);
            p.p_asleep <- p.p_scope = Self && t >= far
          end
          else begin
            r.hterm.(p.p_id) <- p.p_now;
            r.vterm.(p.p_id) <- p.p_now;
            r.key.(p.p_id) <- p.p_now
          end;
          if p.p_asleep then running := false
          (* Self-resume fast path: pushing [p] and popping again would
             return [p] itself whenever it is still the strict (key,
             pid) minimum — [before] is total on live processors (unique
             pids), so the comparison against the heap top decides the
             pick exactly. Skip the heap churn and resume directly. *)
          else if r.queued > 0 && not (Runq.before r p.p_id (Runq.top r)) then
          begin
            Runq.push r p.p_id;
            running := false
          end
        | Finished -> running := false
        | Fresh | Running -> assert false
      end
    done
  done;
  (* A processor still asleep waits for a message nobody is left to
     send, and re-checking its predicate changes nothing: the run is
     deadlocked. Queued at its clock, the sleeper with the least (clock,
     pid) would resume first, with no horizon, and spin into the cycle
     limit; raise that now. *)
  let first = ref None in
  Array.iter
    (fun p ->
      if p.p_asleep then
        match !first with
        | Some q when q.p_now <= p.p_now -> ()
        | _ -> first := Some p)
    tasks;
  Option.iter (fun p -> raise (Cycle_limit p.p_id)) !first;
  outcome tasks

(* Externally-scheduled variant for the litmus model checker: run-ahead
   is disabled (horizons pinned at [min_int], so every scheduling point
   performs and idle waits advance one quantum at a time), and instead
   of popping the (clock, pid) minimum the caller's [choose] picks any
   runnable processor. Index 0 of the candidate array is the (clock,
   pid) minimum, so [choose = fun _ -> cands.(0)] reproduces the
   [run_ahead:false] schedule exactly; any other choice models a valid
   timing (slower processors, longer latencies) because per-pair message
   FIFO order is preserved by the network layer regardless of schedule.

   A decision allocates nothing: [bufs.(k)] is the candidate array for
   [k] live processors, refilled in place at every decision — which is
   why [choose] must not keep it. *)
let run_controlled ~nprocs ?(max_cycles = 2_000_000_000) ?(events = []) ~choose
    body =
  let tasks =
    make_tasks ~nprocs ~max_cycles ~run_ahead:false
      ~arrivals:(Array.make nprocs max_int)
      ~lookahead:(Array.make (nprocs * nprocs) 0)
  in
  let has_events = events <> [] in
  let fire_due = event_pump tasks events in
  let bufs = Array.init (nprocs + 1) (fun k -> Array.make k 0) in
  let running = ref true in
  while !running do
    let n_live = ref 0 in
    for i = 0 to nprocs - 1 do
      if live tasks.(i) then incr n_live
    done;
    if !n_live = 0 then running := false
    else begin
      (* Insertion by clock: pids arrive in ascending order, so only a
         strictly later clock moves right and equal clocks keep pid
         order. *)
      let cands = bufs.(!n_live) in
      let k = ref 0 in
      for i = 0 to nprocs - 1 do
        let t = tasks.(i) in
        if live t then begin
          let j = ref !k in
          while !j > 0 && tasks.(cands.(!j - 1)).p_now > t.p_now do
            cands.(!j) <- cands.(!j - 1);
            decr j
          done;
          cands.(!j) <- i;
          incr k
        end
      done;
      let pick = choose cands in
      if pick < 0 || pick >= nprocs then
        invalid_arg "Engine.run_controlled: choose picked a non-runnable pid";
      let p = tasks.(pick) in
      if live p then begin
        (* Crash events fire at the chosen processor's clock, before it
           steps; the callback may kill any processor including the
           pick, in which case this decision becomes a no-op and the
           next iteration recomputes the live set. *)
        if has_events then fire_due p;
        if live p then step body p
      end
    end
  done;
  outcome tasks
