(* The static-analysis layer: exhaustive model checking of the abstract
   protocol (clean = zero violations, injected faults = reachable
   counterexamples), conformance of real litmus runs against the
   model's label vocabulary, and lock-order cycle detection.

   The model runs the simulator's own coherence handlers, so the state
   and edge counts below are pinned exactly: a handler change that moves
   the explored state space fails here, not only in CI's baseline
   diff. *)

module Dsm = Shasta_core.Dsm
module Config = Shasta_core.Config
module App = Shasta_apps.App
module Litmus = Shasta_check.Litmus
module Conformance = Shasta_check.Conformance
module Model = Shasta_verify.Model
module Reach = Shasta_verify.Reach
module Conform = Shasta_verify.Conform
module Lockgraph = Shasta_verify.Lockgraph
module Prng = Shasta_util.Prng

(* ------------------------------------------------------------------ *)
(* Model basics. *)

let test_initial_state () =
  let st = Model.initial ~home:2 in
  Alcotest.(check (list string)) "initial state clean" []
    (Model.check_invariants st);
  Alcotest.(check bool) "initial state settled" false (Model.transient st);
  (* No messages in flight: only the 4 loads and 4 stores. *)
  Alcotest.(check int) "initial actions" 8
    (List.length (Model.enabled_actions st))

(* ------------------------------------------------------------------ *)
(* Exhaustive reachability. *)

let clean_result = lazy (Reach.explore Reach.default_params)

let crash_result =
  lazy (Reach.explore { Reach.default_params with Reach.crashes = true })

let check_space r ~states ~edges =
  Alcotest.(check bool) "not capped" false r.Reach.r_capped;
  Alcotest.(check int) "zero violations" 0 (List.length r.Reach.r_violations);
  Alcotest.(check int) "states" states r.Reach.r_states;
  Alcotest.(check int) "edges" edges r.Reach.r_edges

let test_clean_reachability () =
  check_space (Lazy.force clean_result) ~states:3928 ~edges:36780

let test_crash_reachability () =
  check_space (Lazy.force crash_result) ~states:4053 ~edges:45239

(* Every branch a step marks is one the dead report lists, so a mark
   added to the shared handlers cannot drop out of [verify --dead]. *)
let test_marks_listed () =
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun b () ->
          if not (List.mem b Model.all_branches) then
            Alcotest.failf "branch %S is not in Model.all_branches" b)
        r.Reach.r_branches)
    [ Lazy.force clean_result; Lazy.force crash_result ]

let test_clean_coverage () =
  let r = Lazy.force clean_result in
  let d = Reach.dead_report r in
  Alcotest.(check (list string)) "no unexpectedly dead branches" []
    d.Reach.dead_branches;
  (* Every coherence message tag except the structurally dead
     upgrade-forward appears on some reachable edge. *)
  let tag_hit t =
    Hashtbl.fold
      (fun l () acc ->
        acc || match l with Model.L_send { tg; _ } -> tg = t | _ -> false)
      r.Reach.r_labels false
  in
  for t = 0 to Model.coherence_tags - 1 do
    let expect = t <> 5 (* upgrade_fwd *) in
    Alcotest.(check bool)
      (Printf.sprintf "tag %d reachable" t)
      expect (tag_hit t)
  done

(* The breadth-first search stops at the first violation, so the states
   and edges seen up to it are pinned along with the minimal
   counterexample's length. *)
let test_fault_exposed fault name ~states ~edges () =
  let r =
    Reach.explore
      { Reach.default_params with Reach.fault = Some fault; stop_at_first = true }
  in
  Alcotest.(check int) (name ^ ": states") states r.Reach.r_states;
  Alcotest.(check int) (name ^ ": edges") edges r.Reach.r_edges;
  match r.Reach.r_violations with
  | [] -> Alcotest.failf "%s: no violating state reachable" name
  | v :: _ ->
    Alcotest.(check int)
      (name ^ ": counterexample steps")
      4
      (List.length v.Reach.v_trace)

(* ------------------------------------------------------------------ *)
(* Conformance of real runs against the model's label vocabulary. *)

let test_conformance_scenarios () =
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (r.Conformance.scenario ^ " conformant")
        [] r.Conformance.mismatches)
    (Conformance.check_all ~seeds:16 ())

(* The QCheck face of the same oracle: any (scenario, seed) pair's
   fuzzed run projects only model-vocabulary labels. *)
let conformance_prop =
  let nscen = List.length Litmus.scenarios in
  QCheck.Test.make ~name:"fuzzed schedules conform to the abstract model"
    ~count:64
    QCheck.(
      pair (make Gen.(int_bound (nscen - 1))) (make Gen.(int_bound 1_000_000)))
    (fun (i, seed) ->
      let sc = List.nth Litmus.scenarios i in
      let inst = sc.Litmus.make ~fault:None in
      let conf =
        Conform.make
          ~labels:(Conform.reference_labels ())
          (Dsm.machine inst.Litmus.handle)
      in
      Dsm.add_observer inst.Litmus.handle conf.Conform.observer;
      let prng = Prng.create (0x5eed + (seed * 2654435761)) in
      Dsm.run_controlled
        ~choose:(fun cands -> cands.(Prng.int prng (Array.length cands)))
        inst.Litmus.handle inst.Litmus.body;
      conf.Conform.events () > 0 && conf.Conform.mismatches () = [])

(* ------------------------------------------------------------------ *)
(* Lock-order analysis. *)

let test_lock_cycle_detected () =
  let g = Lockgraph.create () in
  Lockgraph.add_edge g ~held:1 ~acquired:2;
  Lockgraph.add_edge g ~held:2 ~acquired:1;
  (match Lockgraph.cycles g with
  | [] -> Alcotest.fail "AB/BA cycle not detected"
  | c :: _ ->
    Alcotest.(check bool) "cycle names both locks" true
      (List.sort compare c = [ 1; 2 ]));
  let self = Lockgraph.create () in
  Lockgraph.add_edge self ~held:3 ~acquired:3;
  Alcotest.(check bool) "self cycle detected" true
    (Lockgraph.cycles self = [ [ 3 ] ])

let test_lock_order_acyclic_kv () =
  let g = Lockgraph.create () in
  let inst = (Shasta_apps.Kv.instance : App.maker) () in
  let cfg =
    Config.create ~variant:Config.Smp ~nprocs:8 ~clustering:4
      ~heap_bytes:(App.heap inst) ()
  in
  let h = Dsm.create cfg in
  let body, _ = inst.App.setup h in
  Dsm.add_observer h (Lockgraph.observer g);
  Dsm.run h body;
  Alcotest.(check (list (list Alcotest.int))) "kv acquisitions acyclic" []
    (Lockgraph.cycles g)

(* The observer tracks held sets correctly: nesting two locks in order
   produces exactly the one edge. *)
let test_lock_observer_edges () =
  let g = Lockgraph.create () in
  let o = Lockgraph.observer g in
  let emit time payload =
    o.Shasta_core.Observer.on_event { Shasta_core.Event.proc = 0; time; payload }
  in
  emit 0 (Lock_acquired { lock = 10 });
  emit 1 (Lock_acquired { lock = 11 });
  emit 2 (Lock_released { lock = 11 });
  emit 3 (Lock_released { lock = 10 });
  (* Re-acquire in the same order: no new edge, still acyclic. *)
  emit 4 (Lock_acquired { lock = 10 });
  emit 5 (Lock_acquired { lock = 11 });
  Alcotest.(check (list (pair Alcotest.int Alcotest.int))) "one edge"
    [ (10, 11) ] (Lockgraph.edges g);
  Alcotest.(check (list (list Alcotest.int))) "acyclic" [] (Lockgraph.cycles g)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [
      ( "model",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "clean reachability" `Quick test_clean_reachability;
          Alcotest.test_case "crash reachability" `Quick test_crash_reachability;
          Alcotest.test_case "branch and tag coverage" `Quick
            test_clean_coverage;
          Alcotest.test_case "marks listed" `Quick test_marks_listed;
          Alcotest.test_case "skip-private-downgrade exposed" `Quick
            (test_fault_exposed Config.Skip_private_downgrade
               "skip-private-downgrade" ~states:45 ~edges:169);
          Alcotest.test_case "skip-flag-stamp exposed" `Quick
            (test_fault_exposed Config.Skip_flag_stamp "skip-flag-stamp"
               ~states:53 ~edges:233);
        ] );
      ( "conformance",
        [
          Alcotest.test_case "litmus scenarios" `Quick
            test_conformance_scenarios;
          QCheck_alcotest.to_alcotest conformance_prop;
        ] );
      ( "locks",
        [
          Alcotest.test_case "crafted cycle detected" `Quick
            test_lock_cycle_detected;
          Alcotest.test_case "observer edge tracking" `Quick
            test_lock_observer_edges;
          Alcotest.test_case "kv lock order acyclic" `Quick
            test_lock_order_acyclic_kv;
        ] );
    ]
