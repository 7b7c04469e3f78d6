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

let find name = List.assoc name all
let names = List.map fst all
let splash2 = List.map fst splash2_apps
let table2 = [ "barnes"; "fmm"; "lu"; "lu-contig"; "volrend"; "water-nsq" ]

let table3 =
  [ "barnes"; "fmm"; "lu"; "lu-contig"; "ocean"; "water-nsq"; "water-sp" ]
