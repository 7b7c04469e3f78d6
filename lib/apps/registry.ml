let splash2_apps : (string * App.maker) list =
  [
    ("barnes", Barnes.instance);
    ("fmm", Fmm.instance);
    ("lu", Lu.instance);
    ("lu-contig", Lu_contig.instance);
    ("ocean", Ocean.instance);
    ("raytrace", Raytrace.instance);
    ("volrend", Volrend.instance);
    ("water-nsq", Water_nsq.instance);
    ("water-sp", Water_sp.instance);
  ]

let all : (string * App.maker) list = splash2_apps @ [ ("kv", Kv.instance) ]

(* ------------------------------------------------------------------ *)
(* Registration-time kernel verification. Every compiled access
   program an app can hand to the engine is statically checked once per
   process — in-bounds, aligned, well-formed, charge-consistent — the
   first time an app is looked up; a bad kernel fails loudly before any
   simulation runs it. *)

let kernel_manifest () = Kernels.manifest () @ Kv.prog_manifest ()

let verify_kernels () =
  List.concat_map
    (fun (name, prog, spec) ->
      List.map
        (fun f -> (name, f))
        (Shasta_verify.Progcheck.check_prog ~spec prog))
    (kernel_manifest ())

let kernels_ok =
  lazy
    (match verify_kernels () with
    | [] -> ()
    | findings ->
      let lines =
        List.map
          (fun (name, f) ->
            Printf.sprintf "%s: %s" name
              (Shasta_verify.Progcheck.describe_finding f))
          findings
      in
      failwith
        ("Registry: kernel access programs failed static verification:\n"
        ^ String.concat "\n" lines))

(* [find] runs on the experiment runner's worker domains, and forcing a
   lazy value while another domain is still forcing it raises
   [Lazy.Undefined]: the first verification is serialized. *)
let kernels_mutex = Mutex.create ()

let find name =
  Mutex.protect kernels_mutex (fun () -> Lazy.force kernels_ok);
  List.assoc name all
let names = List.map fst all
let splash2 = List.map fst splash2_apps
let table2 = [ "barnes"; "fmm"; "lu"; "lu-contig"; "volrend"; "water-nsq" ]

let table3 =
  [ "barnes"; "fmm"; "lu"; "lu-contig"; "ocean"; "water-nsq"; "water-sp" ]
