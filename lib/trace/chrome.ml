(* Chrome trace_event JSON (the "JSON array format" understood by
   chrome://tracing and Perfetto). pid = coherence node, tid =
   processor, so the UI groups per-processor tracks by node. ts is in
   microseconds of the simulated 300 MHz clock (1 us = 300 cycles);
   misses and node downgrades additionally get duration ("X") events so
   their spans are visible at a glance. *)

module Event = Shasta_core.Event

let cycles_per_us = 300.

let ts cycles = float_of_int cycles /. cycles_per_us

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type emitter = { buf : Buffer.t; mutable first : bool }

let obj e fields =
  if e.first then e.first <- false else Buffer.add_string e.buf ",\n";
  Buffer.add_char e.buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string e.buf ", ";
      Buffer.add_string e.buf (Printf.sprintf {|"%s": %s|} k v))
    fields;
  Buffer.add_char e.buf '}'

let str s = Printf.sprintf {|"%s"|} (escape s)
let num_ts t = Printf.sprintf "%.3f" (ts t)

let meta e ~pid ~tid ~what ~name =
  obj e
    [
      ("name", str what);
      ("ph", str "M");
      ("ts", "0");
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("args", Printf.sprintf {|{"name": %s}|} (str name));
    ]

let duration e ~name ~cat ~start ~stop ~pid ~tid =
  obj e
    [
      ("name", str name);
      ("cat", str cat);
      ("ph", str "X");
      ("ts", num_ts start);
      ("dur", Printf.sprintf "%.3f" (ts (stop - start)));
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
    ]

let instant e ~name ~cat ~time ~pid ~tid ~detail =
  obj e
    [
      ("name", str name);
      ("cat", str cat);
      ("ph", str "i");
      ("ts", num_ts time);
      ("pid", string_of_int pid);
      ("tid", string_of_int tid);
      ("s", str "t");
      ("args", Printf.sprintf {|{"detail": %s}|} (str detail));
    ]

let export buf ~node_of events =
  let e = { buf; first = true } in
  Buffer.add_string buf "[\n";
  (* Name the process (node) and thread (processor) tracks. *)
  let procs = Hashtbl.create 16 and nodes = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let p = ev.Event.proc in
      if not (Hashtbl.mem procs p) then begin
        Hashtbl.replace procs p ();
        let n = node_of p in
        if not (Hashtbl.mem nodes n) then Hashtbl.replace nodes n ()
      end)
    events;
  List.iter
    (fun n -> meta e ~pid:n ~tid:0 ~what:"process_name"
        ~name:(Printf.sprintf "node%d" n))
    (List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []));
  List.iter
    (fun p -> meta e ~pid:(node_of p) ~tid:p ~what:"thread_name"
        ~name:(Printf.sprintf "proc%d" p))
    (List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) procs []));
  (* Downgrade spans: pending-downgrade set -> clear per (node, block). *)
  let dg_start = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let pid = node_of ev.Event.proc and tid = ev.Event.proc in
      match ev.Event.payload with
      | Event.Miss_end { block; kind; start } ->
        duration e
          ~name:(Printf.sprintf "miss %s %#x" (Event.req_kind_name kind) block)
          ~cat:"miss" ~start ~stop:ev.Event.time ~pid ~tid
      | Event.Pending_downgrade { node; block; set = true } ->
        Hashtbl.replace dg_start (node, block) ev.Event.time
      | Event.Pending_downgrade { node; block; set = false } -> (
        match Hashtbl.find_opt dg_start (node, block) with
        | Some start ->
          Hashtbl.remove dg_start (node, block);
          duration e
            ~name:(Printf.sprintf "downgrade %#x" block)
            ~cat:"downgrade" ~start ~stop:ev.Event.time ~pid ~tid
        | None -> ())
      | _ ->
        instant e ~name:(Event.class_name ev) ~cat:"protocol"
          ~time:ev.Event.time ~pid ~tid ~detail:(Event.describe ev))
    events;
  Buffer.add_string buf "\n]\n"

let to_string ~node_of events =
  let buf = Buffer.create 4096 in
  export buf ~node_of events;
  Buffer.contents buf

let write_file path ~node_of events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~node_of events))
