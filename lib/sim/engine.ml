type _ Effect.t += Yield : unit Effect.t

type status =
  | Fresh
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Running
  | Finished

(* Yield-effect counters for one [run]. Shared by the run's processors
   (a run is single-domain: its coroutines interleave, never overlap),
   never by two runs — which is what makes concurrent [run]s on
   separate domains race-free. *)
type counters = { mutable performed : int; mutable elided : int }

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
  mutable p_visible : int;
      (* The base of [p_horizon] before the tie-break adjustment: the
         earliest virtual time at which anything another processor did
         or will do (including a queued message's arrival) can become
         visible to [p]. Strictly below it, a poll probe is guaranteed
         empty and no shared state [p] can observe changes. *)
  p_max_cycles : int;
  p_counters : counters;
}

type outcome = {
  finish : int array;
  yields_performed : int;
  yields_elided : int;
}

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
   unique (clock, pid) minimum — [p] itself — right back. A protocol
   operation typically issues several scheduling points at one virtual
   time (the flush charge, the poll charge, the poll probe), and this
   collapses them into at most one continuation switch. *)
let yield p =
  if p.p_now >= p.p_horizon && p.p_now <> p.p_resumed_at then begin
    p.p_counters.performed <- p.p_counters.performed + 1;
    Effect.perform Yield
  end
  else p.p_counters.elided <- p.p_counters.elided + 1

let advance p c =
  advance_local p c;
  if p.p_now >= p.p_horizon && p.p_now <> p.p_resumed_at then begin
    p.p_counters.performed <- p.p_counters.performed + 1;
    Effect.perform Yield
  end
  else p.p_counters.elided <- p.p_counters.elided + 1

(* Resume [p] under a deep handler that parks the continuation on Yield.
   The handler returns control to the scheduler loop after each effect. *)
let step body p =
  match p.p_status with
  | Finished | Running -> assert false
  | Suspended k ->
    p.p_status <- Running;
    Effect.Deep.continue k ()
  | Fresh ->
    p.p_status <- Running;
    Effect.Deep.match_with
      (fun () -> body p)
      ()
      {
        retc = (fun () -> p.p_status <- Finished);
        exnc = (fun e -> raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (c, unit) Effect.Deep.continuation) ->
                  p.p_status <- Suspended k)
            | _ -> None);
      }

(* Runnable set as a binary min-heap on (p_now, p_id) — lexicographic,
   so equal clocks resume in processor-id order, exactly the tie-break
   of the original O(n) scan. A processor's clock only moves while it
   runs, and it is out of the heap while it runs, so heap order is never
   invalidated in place. Capacity is nprocs; no allocation after
   creation. *)
module Runq = struct
  type t = { heap : proc array; mutable size : int }

  let less a b = a.p_now < b.p_now || (a.p_now = b.p_now && a.p_id < b.p_id)

  let create capacity dummy = { heap = Array.make capacity dummy; size = 0 }

  (* Hot: one push + one pop per scheduler pick. Every index below is
     bounded by [size <= capacity] (push asserts it), so the accesses
     skip the bounds checks. *)

  let push q p =
    assert (q.size < Array.length q.heap);
    let heap = q.heap in
    let i = ref q.size in
    q.size <- q.size + 1;
    Array.unsafe_set heap !i p;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      less (Array.unsafe_get heap !i) (Array.unsafe_get heap parent)
    do
      let parent = (!i - 1) / 2 in
      let t = Array.unsafe_get heap !i in
      Array.unsafe_set heap !i (Array.unsafe_get heap parent);
      Array.unsafe_set heap parent t;
      i := parent
    done

  let pop q =
    assert (q.size > 0);
    let heap = q.heap in
    let m = Array.unsafe_get heap 0 in
    q.size <- q.size - 1;
    Array.unsafe_set heap 0 (Array.unsafe_get heap q.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.size && less (Array.unsafe_get heap l) (Array.unsafe_get heap !smallest)
      then smallest := l;
      if r < q.size && less (Array.unsafe_get heap r) (Array.unsafe_get heap !smallest)
      then smallest := r;
      if !smallest <> !i then begin
        let t = Array.unsafe_get heap !i in
        Array.unsafe_set heap !i (Array.unsafe_get heap !smallest);
        Array.unsafe_set heap !smallest t;
        i := !smallest
      end
      else continue := false
    done;
    m
end

(* Cycles an idle spin loop may skip over in one step: a loop that
   re-checks state and polls every [quantum] cycles observes, at every
   lattice point strictly below [p_visible], exactly the state it sees
   now — frozen peers, an empty due-message probe — so those
   iterations can be collapsed into a single advance of the returned
   amount, landing on the first lattice point at or past [p_visible]
   (0 when that is the very next point). Virtual-time behavior is
   bit-identical to stepping; only the wasted re-checks go away. *)
let idle_skip p ~quantum =
  (* Compare before subtracting: under the always-yield scheduler
     [p_visible] stays at [min_int] and a subtraction would wrap. *)
  if p.p_visible = max_int || p.p_visible <= p.p_now then 0
  else begin
    let d = p.p_visible - p.p_now in
    if d <= quantum then 0
    else begin
      let steps = (d + quantum - 1) / quantum in
      quantum * (steps - 1)
    end
  end

let no_hint (_ : int) = max_int

(* The run's processors, all [Fresh] at clock 0 and sharing one counter
   record. Horizon and visibility start in the past — the always-yield
   setting, which [run_controlled] keeps throughout and [run] overwrites
   at every resume. *)
let make_tasks ~nprocs ~max_cycles =
  assert (nprocs > 0);
  let counters = { performed = 0; elided = 0 } in
  Array.init nprocs (fun i ->
      {
        p_id = i;
        p_nprocs = nprocs;
        p_now = 0;
        p_status = Fresh;
        p_horizon = min_int;
        p_resumed_at = min_int;
        p_visible = min_int;
        p_max_cycles = max_cycles;
        p_counters = counters;
      })

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
    | Fresh | Suspended _ -> t.p_status <- Finished
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
  let c = tasks.(0).p_counters in
  {
    finish = Array.map (fun p -> p.p_now) tasks;
    yields_performed = c.performed;
    yields_elided = c.elided;
  }

let run ~nprocs ?(max_cycles = 2_000_000_000) ?(run_ahead = true)
    ?(arrival_hint = no_hint) ?(lookahead = [||]) ?(events = []) body =
  assert (
    Array.length lookahead = 0 || Array.length lookahead = nprocs * nprocs);
  let tasks = make_tasks ~nprocs ~max_cycles in
  let has_events = events <> [] in
  let fire_due = event_pump tasks events in
  let lookahead =
    if Array.length lookahead > 0 then lookahead
    else Array.make (nprocs * nprocs) 0
  in
  (* The horizon of [p]: the first virtual time at which [p] must hand
     control back to the scheduler.  Its base is the earliest virtual
     time at which another processor's actions can become visible to
     [p], given that all other clocks are frozen while [p] runs:

     - A message already queued for [p] becomes visible at its arrival
       timestamp ([arrival_hint]).
     - A runnable processor [q]'s next action happens no earlier than
       its own clock, and becomes visible to [p] no earlier than
       [lookahead] cycles after that — the minimum virtual-time cost of
       any direct [q]-to-[p] interaction (0 when they share mutable
       state, the minimum message transfer time when the network is the
       only path between them).
     - Chains through an intermediary [r] need no extra terms: [r] only
       acts when scheduled, from its own clock, and [r]'s clock term
       already bounds everything [r] will do.

     With an all-zero matrix the base degenerates to the second-lowest
     runnable clock — the exact no-lookahead horizon.

     A yield AT the base time [h] performs real work only when the
     scheduler would pick somebody else, i.e. when some contributor [q]
     of the minimum would win the (clock, pid) tie-break against [p]
     standing at [h]: any [q] with a positive lookahead sits at a clock
     strictly below its bound, and a zero-lookahead [q] ties on clock
     and wins on a lower pid.  A minimum contributed only by queued
     messages or by higher-pid zero-lookahead peers means the scheduler
     would pop [p] right back — so [p] may keep running through [h] and
     the horizon is [h + 1]. *)
  (* Hot: one call per scheduler pick. The unsafe reads are in range by
     construction — [i < nprocs = Array.length tasks] and
     [row + i < nprocs * nprocs = Array.length lookahead]. *)
  let horizon_of p =
    assert (Array.length tasks = nprocs && Array.length lookahead = nprocs * nprocs);
    let h = ref (arrival_hint p.p_id) in
    (* Does some contributor of the minimum run before [p] at time !h? *)
    let tie_lower = ref false in
    let row = p.p_id * nprocs in
    for i = 0 to nprocs - 1 do
      let q = Array.unsafe_get tasks i in
      if q != p && q.p_status <> Finished then begin
        let la = Array.unsafe_get lookahead (row + i) in
        let bound = q.p_now + la in
        if bound < !h then begin
          h := bound;
          tie_lower := la > 0 || q.p_id < p.p_id
        end
        else if bound = !h then
          tie_lower := !tie_lower || la > 0 || q.p_id < p.p_id
      end
    done;
    let h = !h in
    p.p_visible <- h;
    if !tie_lower || h = max_int then h else h + 1
  in
  let q = Runq.create nprocs tasks.(0) in
  Array.iter (fun p -> Runq.push q p) tasks;
  while q.Runq.size > 0 do
    let p = Runq.pop q in
    (* A popped processor may have been killed by an event while parked
       in the heap; skip it. *)
    let running = ref (p.p_status <> Finished) in
    while !running do
      (* Crash events fire at the clock of the processor about to be
         resumed — the global minimum, so an event at virtual time [at]
         fires before any processor executes at-or-past [at]. The
         callback may kill processors, including [p] itself. *)
      if has_events then fire_due p;
      if p.p_status = Finished then running := false
      else begin
        (* With [run_ahead] off, a past horizon forces the effect at every
           scheduling point and [p_visible] stays in the past so idle waits
           advance one quantum at a time, reproducing the always-yield
           scheduler switch-for-switch. *)
        if run_ahead then begin
          p.p_horizon <- horizon_of p;
          p.p_resumed_at <- p.p_now
        end
        else begin
          p.p_horizon <- min_int;
          p.p_visible <- min_int
        end;
        step body p;
        (* A Running status here means [step] returned without the task
           either finishing or suspending, which the handler construction
           rules out. *)
        match p.p_status with
        | Suspended _ ->
          (* Self-resume fast path: pushing [p] and popping again would
             return [p] itself whenever it is still the strict (clock,
             pid) minimum — [less] is total on live processors (unique
             pids), so the comparison against the heap top decides the
             pick exactly. Skip the heap churn and resume directly. *)
          if
            q.Runq.size > 0 && not (Runq.less p (Array.unsafe_get q.Runq.heap 0))
          then begin
            Runq.push q p;
            running := false
          end
        | Finished -> running := false
        | Fresh | Running -> assert false
      end
    done
  done;
  outcome tasks

(* Externally-scheduled variant for the litmus model checker: run-ahead
   is disabled (horizons pinned at [min_int], so every scheduling point
   performs and idle waits advance one quantum at a time), and instead
   of popping the (clock, pid) minimum the caller's [choose] picks any
   runnable processor. Index 0 of the candidate array is the (clock,
   pid) minimum, so [choose = fun _ -> cands.(0)] reproduces the
   [run_ahead:false] schedule exactly; any other choice models a valid
   timing (slower processors, longer latencies) because per-pair message
   FIFO order is preserved by the network layer regardless of schedule. *)
let run_controlled ~nprocs ?(max_cycles = 2_000_000_000) ?(events = []) ~choose
    body =
  let tasks = make_tasks ~nprocs ~max_cycles in
  let has_events = events <> [] in
  let fire_due = event_pump tasks events in
  let running = ref true in
  while !running do
    let live = ref [] in
    for i = nprocs - 1 downto 0 do
      if tasks.(i).p_status <> Finished then live := i :: !live
    done;
    match !live with
    | [] -> running := false
    | l ->
      let cands = Array.of_list l in
      Array.sort
        (fun a b ->
          let ca = tasks.(a).p_now and cb = tasks.(b).p_now in
          if ca <> cb then compare ca cb else compare a b)
        cands;
      let pick = choose cands in
      if pick < 0 || pick >= nprocs then
        invalid_arg "Engine.run_controlled: choose picked a non-runnable pid";
      let p = tasks.(pick) in
      if p.p_status <> Finished then begin
        (* Crash events fire at the chosen processor's clock, before it
           steps; the callback may kill any processor including the
           pick, in which case this decision becomes a no-op and the
           next iteration recomputes the live set. *)
        if has_events then fire_due p;
        if p.p_status <> Finished then step body p
      end
  done;
  outcome tasks
