(** Catalogue of the registered workloads: the nine SPLASH-2 kernels
    plus the DSM-backed key-value store. *)

val all : (string * App.maker) list
(** The paper's Table 1 order — barnes, fmm, lu, lu-contig, ocean,
    raytrace, volrend, water-nsq, water-sp — followed by "kv". *)

val find : string -> App.maker
(** Raises [Not_found] for unknown names. *)

val names : string list

val splash2 : string list
(** Just the nine paper applications — what the paper-reproduction
    experiment tables iterate, so their rendered output is independent
    of later additions to [all]. *)

val table2 : string list
(** The six applications with a variable-granularity hint (Table 2). *)

val table3 : string list
(** The seven applications measured at larger problem sizes (Table 3). *)
