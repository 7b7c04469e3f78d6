(* Lock-order deadlock analysis (lockdep-style).

   The lock-acquisition graph has an edge a -> b whenever some
   processor acquires lock b while holding lock a. A cycle in the graph
   is a potential deadlock: there exist schedules in which the
   processors contributing the cycle's edges block each other forever,
   even if no executed schedule has deadlocked yet. The graph is
   collected from app/KV registrations by running their bodies under
   the {!observer} (the lock hooks fire on every acquisition with the
   holder known), or populated directly with {!add_edge}; cycle
   detection is a plain DFS with an explicit gray set, reporting one
   witness cycle per back edge, self-edges (re-acquisition of a held
   lock) included. *)

module Core = Shasta_core

type t = {
  edge_set : (int * int, unit) Hashtbl.t;
  mutable edge_order : (int * int) list;  (** newest first *)
  held : (int, int list) Hashtbl.t;  (** proc -> held locks, newest first *)
}

let create () =
  { edge_set = Hashtbl.create 64; edge_order = []; held = Hashtbl.create 8 }

let add_edge t ~held ~acquired =
  let e = (held, acquired) in
  if not (Hashtbl.mem t.edge_set e) then begin
    Hashtbl.add t.edge_set e ();
    t.edge_order <- e :: t.edge_order
  end

let edges t = List.rev t.edge_order

let observer t =
  let held_of proc = Option.value ~default:[] (Hashtbl.find_opt t.held proc) in
  let on_event { Core.Event.proc; payload; _ } =
    match payload with
    | Lock_acquired { lock } ->
      let held = held_of proc in
      List.iter (fun h -> add_edge t ~held:h ~acquired:lock) held;
      Hashtbl.replace t.held proc (lock :: held)
    | Lock_released { lock } ->
      let rec drop = function
        | [] -> []
        | l :: rest -> if l = lock then rest else l :: drop rest
      in
      Hashtbl.replace t.held proc (drop (held_of proc))
    | _ -> ()
  in
  { Core.Observer.nil with on_event }

(* ------------------------------------------------------------------ *)
(* Cycle detection.                                                    *)

let cycles t =
  let adj : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let nodes = ref [] in
  let note n = if not (Hashtbl.mem adj n) then begin
      Hashtbl.add adj n [];
      nodes := n :: !nodes
    end
  in
  List.iter
    (fun (a, b) ->
      note a;
      note b;
      Hashtbl.replace adj a (b :: Hashtbl.find adj a))
    (edges t);
  let color : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* 1 = on the current DFS path, 2 = done *)
  let found = ref [] in
  let rec dfs path n =
    Hashtbl.replace color n 1;
    List.iter
      (fun m ->
        match Hashtbl.find_opt color m with
        | Some 1 ->
          (* Back edge n -> m: the cycle is the path suffix m..n. *)
          let rec upto = function
            | [] -> []
            | x :: rest -> if x = m then [ x ] else x :: upto rest
          in
          found := List.rev (upto path) :: !found
        | Some _ -> ()
        | None -> dfs (m :: path) m)
      (List.rev (Hashtbl.find adj n));
    Hashtbl.replace color n 2
  in
  List.iter
    (fun n -> if not (Hashtbl.mem color n) then dfs [ n ] n)
    (List.sort compare !nodes);
  List.rev !found

let describe_cycle cycle =
  match cycle with
  | [ l ] -> Printf.sprintf "lock %d re-acquired while held" l
  | _ ->
    String.concat " -> "
      (List.map string_of_int (cycle @ [ List.hd cycle ]))
    |> Printf.sprintf "lock-order cycle: %s"
