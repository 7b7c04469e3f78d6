module Machine = Shasta_core.Machine
module Observer = Shasta_core.Observer
module Event = Shasta_core.Event
module Histogram = Shasta_util.Histogram

type t = {
  miss_latency : Histogram.t;  (* cycles per retired miss *)
  downgrade_rtt : Histogram.t;  (* pending-downgrade set -> clear, cycles *)
  msg_size : Histogram.t;  (* wire bytes per sent message *)
  msg_kind : Histogram.t;  (* Msg.tag per sent message *)
  home_occupancy : Histogram.t;  (* messages handled, keyed by receiver *)
  mutable misses : int;
  mutable sends : int;
  mutable recvs : int;
  mutable downgrades : int;  (* completed multi-processor node downgrades *)
  dg_start : (int * int, int) Hashtbl.t;  (* (node, block) -> set cycle *)
}

let create () =
  {
    miss_latency = Histogram.create ();
    downgrade_rtt = Histogram.create ();
    msg_size = Histogram.create ();
    msg_kind = Histogram.create ();
    home_occupancy = Histogram.create ();
    misses = 0;
    sends = 0;
    recvs = 0;
    downgrades = 0;
    dg_start = Hashtbl.create 16;
  }

let on_event t (e : Event.t) =
  match e.payload with
  | Miss_end { start; _ } ->
    t.misses <- t.misses + 1;
    Histogram.add t.miss_latency (e.time - start)
  | Pending_downgrade { node; block; set = true } ->
    Hashtbl.replace t.dg_start (node, block) e.time
  | Pending_downgrade { node; block; set = false } -> (
    match Hashtbl.find_opt t.dg_start (node, block) with
    | None -> ()
    | Some start ->
      Hashtbl.remove t.dg_start (node, block);
      t.downgrades <- t.downgrades + 1;
      Histogram.add t.downgrade_rtt (e.time - start))
  | Send { kind; size; _ } ->
    t.sends <- t.sends + 1;
    Histogram.add t.msg_size size;
    Histogram.add t.msg_kind kind
  | Recv _ ->
    t.recvs <- t.recvs + 1;
    Histogram.add t.home_occupancy e.proc
  | _ -> ()

let observer t = Observer.of_events (on_event t)

let attach m =
  let t = create () in
  Machine.add_observer m (observer t);
  t

let hist_merge_into ~into src =
  List.iter
    (fun k -> Histogram.add_many into k (Histogram.count src k))
    (Histogram.keys src)

(* Pointwise sum: commutative and associative, so a global aggregate
   filled from parallel runner domains (under a mutex) is independent of
   completion order. *)
let merge_into ~into src =
  hist_merge_into ~into:into.miss_latency src.miss_latency;
  hist_merge_into ~into:into.downgrade_rtt src.downgrade_rtt;
  hist_merge_into ~into:into.msg_size src.msg_size;
  hist_merge_into ~into:into.msg_kind src.msg_kind;
  hist_merge_into ~into:into.home_occupancy src.home_occupancy;
  into.misses <- into.misses + src.misses;
  into.sends <- into.sends + src.sends;
  into.recvs <- into.recvs + src.recvs;
  into.downgrades <- into.downgrades + src.downgrades

let misses t = t.misses
let sends t = t.sends
let recvs t = t.recvs
let downgrades t = t.downgrades
let miss_latency t = t.miss_latency
let downgrade_rtt t = t.downgrade_rtt
let msg_size t = t.msg_size
let msg_kind t = t.msg_kind
let home_occupancy t = t.home_occupancy

let summary_json buf h =
  Buffer.add_string buf
    (Printf.sprintf
       {|{"count": %d, "p50": %d, "p90": %d, "p99": %d, "p999": %d, "max": %d}|}
       (Histogram.total h)
       (Histogram.percentile h 0.5)
       (Histogram.percentile h 0.9)
       (Histogram.percentile h 0.99)
       (Histogram.percentile h 0.999)
       (Histogram.percentile h 1.0))

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"misses": %d, "messages_sent": %d, "messages_received": %d, "downgrades": %d, "miss_latency": |}
       t.misses t.sends t.recvs t.downgrades);
  summary_json buf t.miss_latency;
  Buffer.add_string buf {|, "downgrade_rtt": |};
  summary_json buf t.downgrade_rtt;
  Buffer.add_string buf {|, "msg_size": |};
  summary_json buf t.msg_size;
  Buffer.add_string buf {|, "home_occupancy": |};
  summary_json buf t.home_occupancy;
  Buffer.add_string buf {|, "msg_kinds": {|};
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf {|"%s": %d|} (Event.msg_kind_name k)
           (Histogram.count t.msg_kind k)))
    (Histogram.keys t.msg_kind);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp_summary ppf (label, h) =
  Format.fprintf ppf
    "  %-15s n=%-8d p50=%-8d p90=%-8d p99=%-8d p999=%-8d max=%d@." label
    (Histogram.total h)
    (Histogram.percentile h 0.5)
    (Histogram.percentile h 0.9)
    (Histogram.percentile h 0.99)
    (Histogram.percentile h 0.999)
    (Histogram.percentile h 1.0)

let pp ppf t =
  Format.fprintf ppf
    "misses %d, messages %d sent / %d received, node downgrades %d@."
    t.misses t.sends t.recvs t.downgrades;
  pp_summary ppf ("miss_latency", t.miss_latency);
  pp_summary ppf ("downgrade_rtt", t.downgrade_rtt);
  pp_summary ppf ("msg_size", t.msg_size);
  pp_summary ppf ("home_occupancy", t.home_occupancy);
  Format.fprintf ppf "  messages by kind:@.";
  List.iter
    (fun k ->
      Format.fprintf ppf "    %-15s %d@." (Event.msg_kind_name k)
        (Histogram.count t.msg_kind k))
    (Histogram.keys t.msg_kind)
