(* Tests for the memory substrate: layout, block map, allocator, state
   tables, images and the invalid-flag mechanism. *)

module Layout = Shasta_mem.Layout
module Block_map = Shasta_mem.Block_map
module Home_map = Shasta_mem.Home_map
module State_table = Shasta_mem.State_table
module Image = Shasta_mem.Image
module Alloc = Shasta_mem.Alloc

let layout () = Layout.create ~line_size:64 ~heap_bytes:(1 lsl 20) ()

let test_layout () =
  let l = layout () in
  Alcotest.(check int) "nlines" (1 lsl 14) (Layout.nlines l);
  Alcotest.(check int) "line of 0" 0 (Layout.line_of l 0);
  Alcotest.(check int) "line of 63" 0 (Layout.line_of l 63);
  Alcotest.(check int) "line of 64" 1 (Layout.line_of l 64);
  Alcotest.(check int) "addr of line" 128 (Layout.addr_of_line l 2);
  Alcotest.(check bool) "valid" true (Layout.valid_addr l 0);
  Alcotest.(check bool) "invalid" false (Layout.valid_addr l (1 lsl 20));
  Alcotest.(check int) "page of line 63" 0 (Layout.page_of_line l 63);
  Alcotest.(check int) "page of line 64" 1 (Layout.page_of_line l 64)

let test_block_map () =
  let l = layout () in
  let b = Block_map.create l in
  Alcotest.(check int) "default 1-line block" 5 (Block_map.base_line b 5);
  Block_map.define b ~first_line:8 ~nlines:4;
  for line = 8 to 11 do
    Alcotest.(check int) "base" 8 (Block_map.base_line b line);
    Alcotest.(check int) "len" 4 (Block_map.block_nlines b line)
  done;
  Alcotest.(check int) "outside" 12 (Block_map.base_line b 12);
  Alcotest.(check int) "base addr" (8 * 64) (Block_map.base_addr b l (9 * 64));
  Alcotest.(check int) "size" 256 (Block_map.size_bytes b l (9 * 64))

let test_block_map_defaults () =
  let l = layout () in
  let b = Block_map.create l in
  List.iter
    (fun line ->
      Alcotest.(check int) "own base" line (Block_map.base_line b line);
      Alcotest.(check int) "one line" 1 (Block_map.block_nlines b line))
    [ 0; 1; 63; 64; Layout.nlines l - 1 ];
  let last = (1 lsl 20) - 1 in
  Alcotest.(check int) "base addr of last byte" (last - 63)
    (Block_map.base_addr b l last);
  Alcotest.(check int) "size of last byte" 64 (Block_map.size_bytes b l last)

(* A 100-line block (6400 bytes) starting mid-page spans three pages;
   every line inside reports it, and its neighbours stay one-line. *)
let test_block_map_long () =
  let l = layout () in
  let b = Block_map.create l in
  let first = 60 and n = 100 in
  Block_map.define b ~first_line:first ~nlines:n;
  for line = first to first + n - 1 do
    Alcotest.(check int) "base" first (Block_map.base_line b line);
    Alcotest.(check int) "len" n (Block_map.block_nlines b line)
  done;
  Alcotest.(check int) "before" (first - 1) (Block_map.base_line b (first - 1));
  Alcotest.(check int) "before len" 1 (Block_map.block_nlines b (first - 1));
  Alcotest.(check int) "after" (first + n) (Block_map.base_line b (first + n));
  Alcotest.(check int) "after len" 1 (Block_map.block_nlines b (first + n));
  let base = first * 64 and size = n * 64 in
  List.iter
    (fun addr ->
      Alcotest.(check int) (Printf.sprintf "base addr of %d" addr) base
        (Block_map.base_addr b l addr);
      Alcotest.(check int) (Printf.sprintf "size at %d" addr) size
        (Block_map.size_bytes b l addr))
    [ base; base + 1; 4096; 8191; 8192; base + size - 1 ];
  Alcotest.(check int) "byte after block" (base + size)
    (Block_map.base_addr b l (base + size));
  Alcotest.(check int) "byte before block" (base - 64)
    (Block_map.base_addr b l (base - 1));
  (* Redefining part of it as one-line blocks resets those lines. *)
  for line = first to first + n - 1 do
    Block_map.define b ~first_line:line ~nlines:1
  done;
  Alcotest.(check int) "reset base" (first + 50) (Block_map.base_line b (first + 50));
  Alcotest.(check int) "reset len" 1 (Block_map.block_nlines b (first + 50))

let test_alloc_default_granularity () =
  let l = layout () in
  let bm = Block_map.create l in
  let a = Alloc.create l bm in
  (* Small object: one block covering the object. *)
  let small = Alloc.alloc a 200 in
  Alcotest.(check int) "small is one block" 256 (Block_map.size_bytes bm l small);
  (* Large object: line-sized blocks. *)
  let large = Alloc.alloc a 4096 in
  Alcotest.(check int) "large uses 64B blocks" 64 (Block_map.size_bytes bm l large);
  (* Explicit hint. *)
  let hinted = Alloc.alloc a ~block_size:512 4096 in
  Alcotest.(check int) "hinted block" 512 (Block_map.size_bytes bm l hinted);
  (* Objects never share a line. *)
  let x = Alloc.alloc a 8 in
  let y = Alloc.alloc a 8 in
  Alcotest.(check bool) "line-aligned objects" true
    (Layout.line_of l x <> Layout.line_of l y)

let test_alloc_exhaustion () =
  let l = Layout.create ~line_size:64 ~heap_bytes:4096 () in
  let a = Alloc.create l (Block_map.create l) in
  ignore (Alloc.alloc a 4000);
  Alcotest.check_raises "heap exhausted"
    (Failure "Alloc.alloc: shared heap exhausted") (fun () ->
      ignore (Alloc.alloc a 4096))

let test_state_table () =
  let l = layout () in
  let t = State_table.create l in
  Alcotest.(check bool) "starts invalid" true
    (State_table.get t 0 = State_table.Invalid);
  State_table.set t 0 State_table.Exclusive;
  State_table.set_pending t 0 true;
  State_table.set_pending_downgrade t 0 true;
  Alcotest.(check bool) "state kept" true
    (State_table.get t 0 = State_table.Exclusive);
  Alcotest.(check bool) "pending" true (State_table.pending t 0);
  Alcotest.(check bool) "pdg" true (State_table.pending_downgrade t 0);
  State_table.set t 0 State_table.Shared;
  Alcotest.(check bool) "bits independent of state" true
    (State_table.pending t 0 && State_table.pending_downgrade t 0);
  State_table.set_pending t 0 false;
  Alcotest.(check bool) "pending cleared" false (State_table.pending t 0);
  Alcotest.(check bool) "pdg survives" true (State_table.pending_downgrade t 0)

let test_state_order () =
  let open State_table in
  Alcotest.(check bool) "E>=S" true (base_geq Exclusive Shared);
  Alcotest.(check bool) "S>=S" true (base_geq Shared Shared);
  Alcotest.(check bool) "S<E" false (base_geq Shared Exclusive);
  Alcotest.(check bool) "I<S" false (base_geq Invalid Shared)

let test_image_values () =
  let l = layout () in
  let img = Image.create l in
  Image.store_float img 0 3.25;
  Alcotest.(check (float 0.0)) "float roundtrip" 3.25 (Image.load_float img 0);
  Image.store_int img 8 (-42);
  Alcotest.(check int) "int roundtrip" (-42) (Image.load_int img 8)

let test_invalid_flag () =
  let l = layout () in
  let img = Image.create l in
  Image.store_float img 0 1.5;
  Image.write_invalid_flag img ~addr:0 ~len:64;
  Alcotest.(check bool) "flag detected" true (Image.is_flag64 (Image.load64 img 0));
  Alcotest.(check bool) "whole line stamped" true
    (Image.is_flag64 (Image.load64 img 56));
  Image.store_float img 0 2.5;
  Alcotest.(check bool) "data clears flag" false
    (Image.is_flag64 (Image.load64 img 0))

let test_write_bytes_skip () =
  let l = layout () in
  let img = Image.create l in
  Image.store_int img 0 1;
  Image.store_int img 8 2;
  Image.store_int img 16 3;
  let incoming = Bytes.make 24 '\xff' in
  Image.write_bytes img ~addr:0 ~skip:[ (8, 8) ] incoming;
  Alcotest.(check bool) "overwritten" true (Image.load_int img 0 <> 1);
  Alcotest.(check int) "skipped range preserved" 2 (Image.load_int img 8);
  Alcotest.(check bool) "tail overwritten" true (Image.load_int img 16 <> 3)

(* Differential check of the paged image against a flat [Bytes]
   reference holding the bytes every operation should leave behind. The
   heap is four pages and the addresses cluster around page boundaries,
   so ranges straddle pages, cover whole pages, and span several. *)
let small_heap = 4 * 4096

type op =
  | Store_int of int * int
  | Store_float of int * float
  | Load of int
  | Write of int * int * (int * int) list * int
  | Flag of int * int * (int * int) list
  | Zero of int * int
  | Snapshot of int * int

let pp_op = function
  | Store_int (a, v) -> Printf.sprintf "store_int %d %d" a v
  | Store_float (a, v) -> Printf.sprintf "store_float %d %h" a v
  | Load a -> Printf.sprintf "load %d" a
  | Write (a, n, skip, seed) ->
    Printf.sprintf "write %d %d skip=[%s] seed=%d" a n
      (String.concat ";" (List.map (fun (o, k) -> Printf.sprintf "%d,%d" o k) skip))
      seed
  | Flag (a, n, skip) ->
    Printf.sprintf "flag %d %d skip=[%s]" a n
      (String.concat ";" (List.map (fun (o, k) -> Printf.sprintf "%d,%d" o k) skip))
  | Zero (a, n) -> Printf.sprintf "zero %d %d" a n
  | Snapshot (a, n) -> Printf.sprintf "snapshot %d %d" a n

let gen_op =
  let open QCheck.Gen in
  (* An address within 256 bytes of a page boundary, or anywhere. *)
  let near_boundary =
    frequency
      [
        (3, map2 (fun p d -> max 0 (min (small_heap - 1) ((p * 4096) + d)))
              (int_range 0 4) (int_range (-256) 256));
        (1, int_range 0 (small_heap - 1));
      ]
  in
  let aligned k = map (fun a -> a / k * k) near_boundary in
  (* A range from [a] of up to two pages, or exactly whole pages. *)
  let range k =
    frequency
      [
        ( 4,
          aligned k >>= fun a ->
          map (fun n -> (a, min (small_heap - a) n / k * k)) (int_range 0 8300) );
        ( 1,
          map2 (fun p n -> (p * 4096, min (4 - p) n * 4096)) (int_range 0 3)
            (int_range 1 4) );
      ]
  in
  let skips len =
    list_size (int_range 0 3)
      (int_range 0 (max 0 len) >>= fun o -> map (fun k -> (o, k)) (int_range 0 600))
  in
  let value = aligned 8 >|= min (small_heap - 8) in
  frequency
    [
      (3, map2 (fun a v -> Store_int (a, v)) value int);
      (2, map2 (fun a v -> Store_float (a, v)) value float);
      (3, map (fun a -> Load a) value);
      ( 2,
        range 1 >>= fun (a, n) ->
        map2 (fun skip seed -> Write (a, n, skip, seed)) (skips n) small_nat );
      (1, map (fun (a, n) -> Write (a, n, [], 7)) (range 1));
      (3, range 4 >>= fun (a, n) -> map (fun skip -> Flag (a, n, skip)) (skips n));
      (2, map (fun (a, n) -> Flag (a, n, [])) (range 4));
      (1, map (fun (a, n) -> Zero (a, n)) (range 1));
      (2, map (fun (a, n) -> Snapshot (a, n)) (range 1));
    ]

(* The reference merge: save the skipped bytes, write, restore them. A
   skip range may run past the written range, even past the heap. *)
let ref_write flat ~addr ~skip data =
  let saved =
    List.map
      (fun (off, n) ->
        let n = max 0 (min n (Bytes.length flat - addr - off)) in
        (off, Bytes.sub flat (addr + off) n))
      skip
  in
  Bytes.blit data 0 flat addr (Bytes.length data);
  List.iter (fun (off, b) -> Bytes.blit b 0 flat (addr + off) (Bytes.length b)) saved

let flags len =
  let b = Bytes.create len in
  for w = 0 to (len / 4) - 1 do
    Bytes.set_int32_le b (4 * w) Image.invalid_flag32
  done;
  b

let apply img flat = function
  | Store_int (a, v) ->
    Image.store_int img a v;
    Bytes.set_int64_le flat a (Int64.of_int v);
    true
  | Store_float (a, v) ->
    Image.store_float img a v;
    Bytes.set_int64_le flat a (Int64.bits_of_float v);
    true
  | Load a ->
    Int64.equal (Image.load64 img a) (Bytes.get_int64_le flat a)
    && Image.load_int img a = Int64.to_int (Bytes.get_int64_le flat a)
  | Write (a, n, skip, seed) ->
    let data = Bytes.init n (fun i -> Char.chr ((seed + (i * 31)) land 255)) in
    Image.write_bytes img ~addr:a ~skip data;
    ref_write flat ~addr:a ~skip data;
    true
  | Flag (a, n, skip) ->
    Image.write_invalid_flag img ~skip ~addr:a ~len:n;
    ref_write flat ~addr:a ~skip (flags n);
    true
  | Zero (a, n) ->
    Image.zero img ~addr:a ~len:n;
    Bytes.fill flat a n '\000';
    true
  | Snapshot (a, n) -> Bytes.equal (Image.snapshot img ~addr:a ~len:n) (Bytes.sub flat a n)

let prop_paged_matches_flat =
  QCheck.Test.make ~name:"paged image matches a flat reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let img = Image.create (Layout.create ~heap_bytes:small_heap ()) in
      let flat = Bytes.make small_heap '\000' in
      List.for_all (apply img flat) ops
      && Bytes.equal (Image.snapshot img ~addr:0 ~len:small_heap) flat)

(* The zero and flag pages are shared by every image in the process: a
   full Base-16 run that stamps, stores into and installs data over
   thousands of pages must leave both untouched. *)
let test_shared_pages_untouched () =
  let inst = Shasta_apps.Lu.instance ~scale:0.25 () in
  let cfg =
    Shasta_core.Config.create ~variant:Shasta_core.Config.Base ~nprocs:16
      ~heap_bytes:(Shasta_apps.App.heap inst) ()
  in
  let h = Shasta_core.Dsm.create cfg in
  let body, verify = inst.Shasta_apps.App.setup h in
  Shasta_core.Dsm.run h body;
  Alcotest.(check bool) "run verified" true
    (verify h).Shasta_apps.App.ok;
  let l = layout () in
  let heap = 1 lsl 20 in
  let fresh = Image.create l in
  Alcotest.(check bool) "fresh image reads zero" true
    (Bytes.equal (Image.snapshot fresh ~addr:0 ~len:heap) (Bytes.make heap '\000'));
  let stamped = Image.create l in
  Image.write_invalid_flag stamped ~addr:0 ~len:heap;
  Alcotest.(check bool) "stamped image reads the flag" true
    (Bytes.equal (Image.snapshot stamped ~addr:0 ~len:heap) (flags heap));
  for w = 0 to (heap / 8) - 1 do
    if not (Image.is_flag64 (Image.load64 stamped (8 * w))) then
      Alcotest.failf "flag load at %d" (8 * w)
  done

let test_home_map () =
  let l = layout () in
  let hm = Home_map.create l ~nprocs:4 in
  Alcotest.(check int) "page 0 round robin" 0 (Home_map.home_of_line hm l 0);
  Alcotest.(check int) "page 1 round robin" 1 (Home_map.home_of_line hm l 64);
  Home_map.set_home hm l ~addr:0 ~len:8192 ~proc:3;
  Alcotest.(check int) "pinned" 3 (Home_map.home_of_line hm l 0);
  Alcotest.(check int) "pinned second page" 3 (Home_map.home_of_line hm l 64);
  Alcotest.(check int) "beyond range untouched" 2 (Home_map.home_of_line hm l 128)

let prop_flag_pattern_is_rare =
  QCheck.Test.make ~name:"random doubles are not the flag pattern" ~count:1000
    QCheck.float (fun f -> not (Image.is_flag64 (Int64.bits_of_float f)))

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations are disjoint" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 2000))
    (fun sizes ->
      let l = Layout.create ~heap_bytes:(1 lsl 20) () in
      let a = Alloc.create l (Block_map.create l) in
      let spans = List.map (fun s -> (Alloc.alloc a s, s)) sizes in
      let rec disjoint = function
        | [] -> true
        | (base, size) :: rest ->
          List.for_all
            (fun (b2, s2) -> b2 >= base + size || base >= b2 + s2)
            rest
          && disjoint rest
      in
      disjoint spans)

let () =
  Alcotest.run "mem"
    [
      ("layout", [ Alcotest.test_case "geometry" `Quick test_layout ]);
      ( "block-map",
        [
          Alcotest.test_case "define/query" `Quick test_block_map;
          Alcotest.test_case "one-line defaults" `Quick test_block_map_defaults;
          Alcotest.test_case "block longer than a page" `Quick test_block_map_long;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "granularity" `Quick test_alloc_default_granularity;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
        ] );
      ( "state-table",
        [
          Alcotest.test_case "bits" `Quick test_state_table;
          Alcotest.test_case "ordering" `Quick test_state_order;
        ] );
      ( "image",
        [
          Alcotest.test_case "values" `Quick test_image_values;
          Alcotest.test_case "invalid flag" `Quick test_invalid_flag;
          Alcotest.test_case "merge skip" `Quick test_write_bytes_skip;
          QCheck_alcotest.to_alcotest prop_flag_pattern_is_rare;
          QCheck_alcotest.to_alcotest prop_paged_matches_flat;
          Alcotest.test_case "shared pages untouched" `Quick
            test_shared_pages_untouched;
        ] );
      ("home-map", [ Alcotest.test_case "placement" `Quick test_home_map ]);
    ]
