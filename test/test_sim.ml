(* Tests for the deterministic cooperative multiprocessor. *)

module Engine = Shasta_sim.Engine

let test_single_proc () =
  let outcome =
    Engine.run ~nprocs:1 (fun p ->
        Engine.advance p 100;
        Engine.advance p 50)
  in
  Alcotest.(check (array int)) "finish time" [| 150 |] outcome.Engine.finish

let test_min_clock_order () =
  (* The slow processor advances in big steps; the fast one in small
     steps. Recording the global interleaving order must show the
     min-clock property: an event at time t is never recorded after an
     event at time t' > t from another processor's later step. *)
  let log = ref [] in
  ignore
    (Engine.run ~nprocs:2 (fun p ->
         let step = if Engine.pid p = 0 then 10 else 25 in
         for _ = 1 to 4 do
           Engine.advance p step;
           log := (Engine.pid p, Engine.now p) :: !log
         done));
  let events = List.rev !log in
  let times = List.map snd events in
  let sorted = List.sort compare times in
  Alcotest.(check (list int)) "events in global time order" sorted times

let test_determinism () =
  let run () =
    let log = ref [] in
    ignore
      (Engine.run ~nprocs:4 (fun p ->
           for i = 1 to 5 do
             Engine.advance p ((Engine.pid p * 7) + i);
             log := (Engine.pid p, Engine.now p) :: !log
           done));
    !log
  in
  Alcotest.(check bool) "identical logs" true (run () = run ())

let test_advance_local_no_yield () =
  (* advance_local must not yield: between two local advances of proc 0,
     proc 1 (whose clock is smaller) must not run. *)
  let order = ref [] in
  ignore
    (Engine.run ~nprocs:2 (fun p ->
         if Engine.pid p = 0 then begin
           Engine.advance_local p 5;
           order := `A :: !order;
           Engine.advance_local p 5;
           order := `B :: !order;
           Engine.yield p
         end
         else begin
           Engine.yield p;
           order := `C :: !order
         end));
  (* Proc 1 yields at time 0 first, then proc 0 runs A and B back to
     back without interruption, then proc 1's continuation. *)
  Alcotest.(check bool) "A immediately before B" true
    (match List.rev !order with
    | [ `A; `B; `C ] | [ `C; `A; `B ] -> true
    | _ -> false)

let test_cycle_limit () =
  Alcotest.check_raises "limit enforced" (Engine.Cycle_limit 0) (fun () ->
      ignore
        (Engine.run ~nprocs:1 ~max_cycles:1000 (fun p ->
             while true do
               Engine.advance p 100
             done)))

let test_ties_by_pid () =
  (* With identical advances, processors at equal times run in pid
     order. *)
  let log = ref [] in
  ignore
    (Engine.run ~nprocs:3 (fun p ->
         Engine.advance p 10;
         log := Engine.pid p :: !log;
         Engine.advance p 10;
         log := Engine.pid p :: !log));
  Alcotest.(check (list int)) "pid order at equal times" [ 0; 1; 2; 0; 1; 2 ]
    (List.rev !log)

let prop_finish_equals_sum =
  QCheck.Test.make ~name:"finish time equals sum of advances" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 1000))
    (fun steps ->
      let outcome =
        Engine.run ~nprocs:1 (fun p -> List.iter (Engine.advance p) steps)
      in
      outcome.Engine.finish.(0) = List.fold_left ( + ) 0 steps)

(* Frozen-peer idle skip. Processors 0-3 share state (lookahead 0, one
   group); processor 4 is remote (lookahead 1,000). Each scenario runs
   under run-ahead and under always-yield and compares, per processor,
   the cycle at which it saw each flag: a wake rule that is missing lets
   a waiter skip past the moment a parked sibling wakes and acts. *)
let group_lookahead =
  Array.init 25 (fun k ->
      let p = k / 5 and q = k mod 5 in
      if p = q || (p < 4 && q < 4) then 0 else 1000)

(* Shaped like [Protocol.stall]: probe, re-check, advance one 60-cycle
   gap plus the idle skip; touch on the way out. *)
let wait ?scope ?(probe = ignore) p pred =
  while not (pred ()) do
    Engine.yield p;
    probe ();
    if not (pred ()) then
      Engine.advance p (60 + Engine.idle_skip ?scope p ~quantum:60)
  done;
  Engine.touch p

(* A scenario builds fresh shared state and returns the run's arrival
   array and a body that logs, through [saw], what it sees and when. Run
   it once under each scheduler; the logs must agree. Returns the log
   and each leg's performed yields. *)
let same_both_ways scenario =
  let run run_ahead =
    let log = ref [] in
    let saw p what = log := (Engine.pid p, what, Engine.now p) :: !log in
    let arrivals, body = scenario () in
    let o =
      Engine.run ~nprocs:5 ~run_ahead ~arrivals ~lookahead:group_lookahead
        (body saw)
    in
    (List.sort compare !log, o.Engine.yields_performed)
  in
  let ra, ra_yields = run true and ay, ay_yields = run false in
  Alcotest.(check (list (triple int string int)))
    "run-ahead sees what always-yield sees" ay ra;
  (ra, ra_yields, ay_yields)

let remote_idle p = Engine.advance p 50_000

(* Rule 3: q leaves its wait and sets [b] while r, parked, waits on it;
   r then sets [c] for s. Without the touch on leaving, s would take r
   for frozen and skip to the remote's horizon. *)
let chain () =
  let a = ref false and b = ref false and c = ref false in
  ( Array.make 5 max_int,
    fun saw p ->
      match Engine.pid p with
      | 0 ->
        Engine.advance p 1000;
        a := true;
        saw p "set a"
      | 1 ->
        wait p (fun () -> !a);
        saw p "a";
        b := true
      | 2 ->
        Engine.advance p 50;
        wait p (fun () -> !b);
        saw p "b";
        c := true
      | 3 ->
        Engine.advance p 15;
        wait p (fun () -> !c);
        saw p "c"
      | _ -> remote_idle p )

let test_frozen_chain () =
  let log, ra_yields, ay_yields = same_both_ways chain in
  Alcotest.(check bool) "s saw c one gap after r saw b" true
    (List.mem (3, "c", 1095) log);
  Alcotest.(check bool)
    (Printf.sprintf "run-ahead yields %d << always-yield %d" ra_yields
       ay_yields)
    true
    (ra_yields * 4 < ay_yields)

(* Rule 1: x is busy (not parked) when it sets [a], then keeps
   computing. Resuming x must unfreeze its parked siblings, or s takes
   q for frozen while q's predicate is already true. *)
let late_waker () =
  let a = ref false and c = ref false in
  ( Array.make 5 max_int,
    fun saw p ->
      match Engine.pid p with
      | 0 ->
        for _ = 1 to 100 do
          Engine.advance p 10
        done;
        a := true;
        saw p "set a";
        Engine.advance p 1000
      | 1 ->
        Engine.advance p 30;
        wait p (fun () -> !a);
        saw p "a";
        c := true
      | 2 ->
        Engine.advance p 10;
        wait p (fun () -> !c);
        saw p "c"
      | 3 -> ()
      | _ -> remote_idle p )

let test_frozen_late_waker () = ignore (same_both_ways late_waker)

(* Rule 2: q, waiting on [d], handles a message from the remote that
   sets [c]; s waits on [c] and then sets [d]. Handling must unfreeze s,
   or q takes s for frozen and skips past the moment s sets [d]. *)
let message_waker () =
  let arrivals = Array.make 5 max_int and c = ref false and d = ref false in
  ( arrivals,
    fun saw p ->
      match Engine.pid p with
      | 1 ->
        let probe () =
          if arrivals.(1) <= Engine.now p then begin
            Engine.touch p;
            arrivals.(1) <- max_int;
            saw p "msg";
            c := true
          end
        in
        wait ~probe p (fun () -> !d);
        saw p "d"
      | 3 ->
        Engine.advance p 15;
        wait p (fun () -> !c);
        saw p "c";
        d := true
      | 4 ->
        Engine.advance p 100;
        arrivals.(1) <- Engine.now p + 1000;
        Engine.sent p ~dst:1;
        remote_idle p
      | _ -> () )

let test_frozen_message_waker () = ignore (same_both_ways message_waker)

(* Send hook: q waits self-woken for a message only it handles, so its
   clock does not bound p running beside it. Mid-slice p queues that
   message and then keeps checking the flag q's handler sets. The
   send must lower p's horizon to q's new term, or p runs on past the
   moment q handles the message and sees the flag late. *)
let self_woken_send () =
  let arrivals = Array.make 5 max_int in
  let flag = ref false and granted = ref false in
  ( arrivals,
    fun saw p ->
      match Engine.pid p with
      | 0 ->
        Engine.advance p 500;
        arrivals.(1) <- Engine.now p + 100;
        Engine.sent p ~dst:1;
        saw p "sent";
        while not !flag do
          Engine.advance p 10
        done;
        saw p "flag"
      | 1 ->
        let probe () =
          if arrivals.(1) <= Engine.now p then begin
            Engine.touch p;
            arrivals.(1) <- max_int;
            saw p "msg";
            flag := true;
            granted := true
          end
        in
        wait ~scope:Engine.Self ~probe p (fun () -> !granted)
      | 4 -> remote_idle p
      | _ -> () )

let test_self_woken_send () =
  let log, _, _ = same_both_ways self_woken_send in
  Alcotest.(check bool) "p saw the flag one step after q handled" true
    (List.mem (1, "msg", 600) log && List.mem (0, "flag", 610) log)

(* Sleep: q waits self-woken with nothing queued, so it leaves the run
   queue, while p and r compute in lockstep and pass its clock every
   step. Mid-run p queues the message q's handler turns into a flag and
   spins on that flag. The send must push q back, or p spins into the
   cycle limit; q must handle the message at always-yield's cycle; and
   q must not have been resumed each time p and r passed its clock.
   [checks] counts q's predicate re-checks. *)
let sleeper checks () =
  let arrivals = Array.make 5 max_int in
  let flag = ref false in
  ( arrivals,
    fun saw p ->
      match Engine.pid p with
      | 0 ->
        for _ = 1 to 300 do
          Engine.advance p 100
        done;
        arrivals.(1) <- Engine.now p + 100;
        Engine.sent p ~dst:1;
        saw p "sent";
        while not !flag do
          Engine.advance p 100
        done;
        saw p "flag"
      | 1 ->
        let probe () =
          incr checks;
          if arrivals.(1) <= Engine.now p then begin
            Engine.touch p;
            arrivals.(1) <- max_int;
            saw p "msg";
            flag := true
          end
        in
        wait ~scope:Engine.Self ~probe p (fun () -> !flag)
      | 2 ->
        for _ = 1 to 500 do
          Engine.advance p 100
        done
      | _ -> () )

let test_sleeper_woken_by_send () =
  let log, _, _ = same_both_ways (sleeper (ref 0)) in
  Alcotest.(check bool) "q handled at the first lattice point past 30,100"
    true
    (List.mem (1, "msg", 30_120) log && List.mem (0, "flag", 30_200) log);
  let checks = ref 0 in
  let arrivals, body = sleeper checks () in
  ignore
    (Engine.run ~nprocs:5 ~arrivals ~lookahead:group_lookahead
       (body (fun _ _ -> ())));
  (* 403 while q was resumed each time p and r passed its bound; 5 once
     it sleeps. *)
  Alcotest.(check bool)
    (Printf.sprintf "q re-checked %d times <= 10" !checks)
    true (!checks <= 10)

(* Keyed queue: q waits self-woken, parks with nothing queued, and then
   the remote sends it a grant that arrives 20,000 cycles later. Until
   then p and r compute in lockstep beside q and pass its clock every
   step. Queued by its clock, q would be resumed at every step to probe
   an empty queue; queued by its frozen term it is resumed once the
   grant is due. q must handle the grant at always-yield's cycle, and
   [in_flight] counts its re-checks while the grant is in flight. *)
let queued_waiter in_flight () =
  let arrivals = Array.make 5 max_int in
  let granted = ref false in
  ( arrivals,
    fun saw p ->
      match Engine.pid p with
      | 1 ->
        let probe () =
          if arrivals.(1) <= Engine.now p then begin
            Engine.touch p;
            arrivals.(1) <- max_int;
            saw p "grant";
            granted := true
          end
          else if arrivals.(1) < max_int then incr in_flight
        in
        wait ~scope:Engine.Self ~probe p (fun () -> !granted)
      | 0 | 2 ->
        for _ = 1 to 500 do
          Engine.advance p 100
        done
      | 4 ->
        Engine.advance p 100;
        arrivals.(1) <- Engine.now p + 20_000;
        Engine.sent p ~dst:1;
        remote_idle p
      | _ -> () )

let test_queued_waiter () =
  let log, _, _ = same_both_ways (queued_waiter (ref 0)) in
  Alcotest.(check bool) "q handled at the first lattice point past 20,100"
    true
    (List.mem (1, "grant", 20_100) log);
  let in_flight = ref 0 in
  let arrivals, body = queued_waiter in_flight () in
  let o =
    Engine.run ~nprocs:5 ~arrivals ~lookahead:group_lookahead
      (body (fun _ _ -> ()))
  in
  (* 267 while q was queued by its clock; 1 once it is queued by its
     frozen term. *)
  Alcotest.(check bool)
    (Printf.sprintf "q resumed %d times with the grant in flight <= 2"
       !in_flight)
    true (!in_flight <= 2);
  let s = o.Engine.yields_by_site in
  Alcotest.(check int) "yields by site sum to the performed yields"
    o.Engine.yields_performed
    (s.Engine.poll + s.Engine.group + s.Engine.self + s.Engine.global)

(* Decrease-key: q waits self-woken with the remote's message arriving
   at 30,100, so it is queued by that term. Then p, beside it, sends a
   message arriving at 5,500 and spins on the flag q's handler sets. The
   send must move q up the run queue, or q is resumed only once p and r
   pass 30,100, and p sees the flag that late. *)
let earlier_send () =
  let arrivals = Array.make 5 max_int in
  let pending = ref [] and handled = ref 0 and flag = ref false in
  let queue at =
    pending := List.sort compare (at :: !pending);
    arrivals.(1) <- List.hd !pending
  in
  ( arrivals,
    fun saw p ->
      match Engine.pid p with
      | 1 ->
        let probe () =
          while arrivals.(1) <= Engine.now p do
            Engine.touch p;
            pending := List.tl !pending;
            arrivals.(1) <- (match !pending with a :: _ -> a | [] -> max_int);
            saw p "msg";
            flag := true;
            incr handled
          done
        in
        wait ~scope:Engine.Self ~probe p (fun () -> !handled = 2)
      | 0 ->
        for _ = 1 to 10 do
          Engine.advance p 100
        done;
        queue (Engine.now p + 4_500);
        Engine.sent p ~dst:1;
        while not !flag do
          Engine.advance p 100
        done;
        saw p "flag"
      | 2 ->
        for _ = 1 to 500 do
          Engine.advance p 100
        done
      | 4 ->
        Engine.advance p 100;
        queue (Engine.now p + 30_000);
        Engine.sent p ~dst:1;
        remote_idle p
      | _ -> () )

let test_earlier_send () =
  let log, _, _ = same_both_ways earlier_send in
  Alcotest.(check bool) "p saw the flag one step after q handled at 5,520"
    true
    (List.mem (1, "msg", 5_520) log && List.mem (0, "flag", 5_600) log)

(* Deadlock: every live processor sleeps, waiting for a message nobody
   sends. The run must end in [Cycle_limit] for the sleeper with the
   least (clock, pid): queued, it would have spun into the limit
   first. *)
let test_all_asleep () =
  Alcotest.check_raises "cycle limit" (Engine.Cycle_limit 1) (fun () ->
      ignore
        (Engine.run ~nprocs:5 ~max_cycles:100_000 ~lookahead:group_lookahead
           (fun p ->
             let never () = wait ~scope:Engine.Self p (fun () -> false) in
             match Engine.pid p with
             | 0 ->
               Engine.advance p 500;
               never ()
             | 1 -> never ()
             | 2 -> Engine.advance p 2_000
             | 4 ->
               Engine.advance p 100;
               never ()
             | _ -> ())))

(* A [Global] wait (the drain's) never sleeps: its predicate can turn
   true without a message, so the waiter must leave while the processor
   that turned it still runs, not once the run queue empties. *)
let test_global_waiter_wakes () =
  let flag = ref false and remote_done = ref false in
  let left_early = ref false in
  ignore
    (Engine.run ~nprocs:5 ~lookahead:group_lookahead (fun p ->
         match Engine.pid p with
         | 0 ->
           wait ~scope:Engine.Global p (fun () -> !flag);
           left_early := not !remote_done
         | 1 ->
           for _ = 1 to 500 do
             Engine.advance p 100
           done
         | 4 ->
           for i = 1 to 500 do
             Engine.advance p 100;
             if i = 100 then flag := true
           done;
           remote_done := true
         | _ -> ()));
  Alcotest.(check bool) "left while the remote still ran" true !left_early

(* [run_controlled] hands [choose] exactly the live pids in (clock, pid)
   order. The bodies publish the clock each advance suspends at; the
   recording [choose] rebuilds the expected order from that, with ties
   at equal clocks and processor 2 killed at cycle 35. *)
let test_controlled_candidates () =
  let nprocs = 4 in
  let steps = [| 10; 10; 20; 5 |] in
  let clocks = Array.make nprocs 0 and alive = Array.make nprocs true in
  let finished = Array.make nprocs false and killed = ref false in
  let decisions = ref 0 and ties = ref 0 and bad = ref [] in
  let choose cands =
    let expected =
      List.filter (fun i -> alive.(i)) (List.init nprocs Fun.id)
      |> List.stable_sort (fun a b -> compare clocks.(a) clocks.(b))
    in
    let got = Array.to_list cands in
    if got <> expected then bad := (!decisions, got, expected) :: !bad;
    if
      List.exists
        (fun a -> List.exists (fun b -> a < b && clocks.(a) = clocks.(b)) got)
        got
    then incr ties;
    incr decisions;
    (* Vary the pick so the clocks drift apart and back together. *)
    cands.(!decisions mod Array.length cands)
  in
  let kill_at = 35 in
  let events =
    [
      ( kill_at,
        fun ~kill ~now:_ ->
          kill 2;
          alive.(2) <- false;
          killed := true );
    ]
  in
  ignore
    (Engine.run_controlled ~nprocs ~events ~choose (fun p ->
         let i = Engine.pid p in
         for _ = 1 to 8 do
           clocks.(i) <- Engine.now p + steps.(i);
           Engine.advance p steps.(i)
         done;
         alive.(i) <- false;
         finished.(i) <- true));
  Alcotest.(check (list (triple int (list int) (list int))))
    "candidates are the live pids by (clock, pid)" [] (List.rev !bad);
  Alcotest.(check bool) "processor 2 was killed mid-run" true
    (!killed && not finished.(2));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d decisions had equal clocks" !ties !decisions)
    true (!ties > 0)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "single proc" `Quick test_single_proc;
          Alcotest.test_case "min-clock order" `Quick test_min_clock_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "advance_local atomic" `Quick
            test_advance_local_no_yield;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
          Alcotest.test_case "tie-break by pid" `Quick test_ties_by_pid;
          QCheck_alcotest.to_alcotest prop_finish_equals_sum;
        ] );
      ( "frozen-peers",
        [
          Alcotest.test_case "chain (leaving a wait)" `Quick test_frozen_chain;
          Alcotest.test_case "late active waker (resume)" `Quick
            test_frozen_late_waker;
          Alcotest.test_case "message waker (handling)" `Quick
            test_frozen_message_waker;
          Alcotest.test_case "send to a self-woken sibling" `Quick
            test_self_woken_send;
          Alcotest.test_case "send wakes a sleeper" `Quick
            test_sleeper_woken_by_send;
          Alcotest.test_case "all asleep ends in the cycle limit" `Quick
            test_all_asleep;
          Alcotest.test_case "a global waiter does not sleep" `Quick
            test_global_waiter_wakes;
          Alcotest.test_case "a queued self waiter resumes once" `Quick
            test_queued_waiter;
          Alcotest.test_case "an earlier send moves a queued waiter up" `Quick
            test_earlier_send;
        ] );
      ( "controlled",
        [
          Alcotest.test_case "candidates by (clock, pid)" `Quick
            test_controlled_candidates;
        ] );
    ]
