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
    ]
