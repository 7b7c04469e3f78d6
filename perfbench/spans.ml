(* Host-time spans recorded by the benchmark around its calls into the
   simulator's layers. Spans live in memory and are written once, as
   Chrome trace-event JSON, when the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  run : int;  (** simulation run the span belongs to *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** completed, newest first *)
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable next : int;
  mutable run : int;
}

let create () = { spans = []; stack = []; next = 0; run = 0 }

let next_run t = t.run <- t.run + 1

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let run = t.run in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; run; start; stop } :: t.spans)

(* [with_span None] is the untraced pass: the call runs bare. *)
let with_span tr name f =
  match tr with None -> f () | Some t -> record t name f

let duration s = s.stop -. s.start

(* Per span name: (count, total seconds, self seconds), where self time
   is a span's duration minus the time its direct children cover. *)
let summary t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let c, tot, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (c + 1, tot +. duration s, sf +. self))
    t.spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 t.spans

let write_chrome t file =
  let spans = List.rev t.spans in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
         \"run\": %d}}"
        (if i = 0 then "  " else ",\n  ")
        s.name (us s.start) (duration s *. 1e6) s.id s.parent s.run)
    spans;
  output_string oc "\n]}\n";
  close_out oc
