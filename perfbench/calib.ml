(* Calibration kernel, timed next to every measured segment of a run.

   On a shared host the wall time of the same work drifts by tens of
   percent with what other tenants run. The kernel drifts with it, so a
   segment's wall time scaled by [reference_s /. kernel time] cancels
   most of that drift. The kernel is two fibers handing control back and
   forth through an effect handler, the operation that dominates the
   simulator's own host time (Engine yields are effect switches). It
   uses only the standard library, so no change to the simulator can
   move it. *)

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

let switches = 500_000

(* About what [sample] takes on a 2-core Intel Xeon Linux container at
   ordinary load, so calibrated times read roughly as seconds there. *)
let reference_s = 0.05

let ping_pong () =
  let ready = Queue.create () in
  let spawn f =
    match_with f ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Queue.push (fun () -> continue k ()) ready)
            | _ -> None);
      }
  in
  for _ = 1 to 2 do
    spawn (fun () ->
        for _ = 1 to switches / 2 do
          perform Yield
        done)
  done;
  while not (Queue.is_empty ready) do
    (Queue.pop ready) ()
  done

(* Wall seconds of one run of the kernel. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ping_pong ();
  Unix.gettimeofday () -. t0
