(* Unit and property tests for Qs_util: PRNG determinism, statistics,
   table rendering, histograms. *)

open Qs_util

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let c = Prng.split a in
  let xs = Array.init 50 (fun _ -> Prng.int a 1000) in
  let ys = Array.init 50 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let r = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Prng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.fail "Prng.int out of bounds"
  done

let test_prng_int_invalid () =
  let r = Prng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_percent () =
  let r = Prng.create ~seed:9 in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    let p = Prng.percent r in
    counts.(p) <- counts.(p) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 500 || c > 1500 then
        Alcotest.failf "percent bucket %d badly skewed: %d" i c)
    counts

let test_prng_shuffle_permutation () =
  let r = Prng.create ~seed:11 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 Fun.id) sorted

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean [||]);
  Alcotest.(check (float 1e-6)) "stddev" 1.290994 (Stats.stddev [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0. (Stats.stddev [| 5. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "p0" 10. (Stats.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p50" 30. (Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p25 interpolated" 20. (Stats.percentile xs 25.);
  Alcotest.(check (float 1e-9)) "median" 30. (Stats.median xs)

let test_stats_percentile_empty () =
  (* Total on the empty array (0., like [mean]) rather than raising: every
     caller was guarding [Array.length > 0] by hand or crashing. *)
  Alcotest.(check (float 1e-9)) "empty p50" 0. (Stats.percentile [||] 50.);
  Alcotest.(check (float 1e-9)) "empty median" 0. (Stats.median [||]);
  Alcotest.check_raises "p out of range still rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [||] 101.))

let test_stats_minmax_overhead () =
  let lo, hi = Stats.min_max [| 3.; 1.; 2. |] in
  Alcotest.(check (float 1e-9)) "min" 1. lo;
  Alcotest.(check (float 1e-9)) "max" 3. hi;
  Alcotest.(check (float 1e-9)) "overhead" 25. (Stats.overhead_pct ~baseline:4. 3.);
  Alcotest.(check (float 1e-9)) "speedup" 3. (Stats.speedup ~baseline:2. 6.);
  Alcotest.(check (float 1e-9)) "ratio by zero" 0. (Stats.ratio 1. 0.)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_ascii () =
  let t = Table.create [ "scheme"; "tput" ] in
  Table.add_row t [ "hp"; "1.0" ];
  Table.add_float_row t "qsbr" [ 2.5 ];
  let s = Table.to_ascii t in
  Alcotest.(check bool) "contains header" true (contains s "scheme");
  Alcotest.(check bool) "contains row" true (contains s "qsbr");
  Alcotest.(check bool) "contains float" true (contains s "2.500")

let test_table_width_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv_quoting () =
  let t = Table.create [ "k"; "v" ] in
  Table.add_row t [ "with,comma"; "with\"quote" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "k,v\n\"with,comma\",\"with\"\"quote\"\n" csv

let test_table_save_csv () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  let path = Filename.temp_file "qsense" ".csv" in
  Table.save_csv t path;
  let ic = open_in path in
  let l1 = input_line ic and l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "a,b" l1;
  Alcotest.(check string) "row" "1,2" l2

let test_histogram_edge_labels () =
  (* Narrow range: a fixed "%10.2f" collapses adjacent edges of a
     [0, 0.01) histogram to the same label. Labels must stay pairwise
     distinct and right-aligned to one common width. *)
  let labels =
    Array.to_list (Buckets.distinct_labels [| 0.; 0.0025; 0.005; 0.0075 |])
  in
  Alcotest.(check int) "labels distinct" 4
    (List.length (List.sort_uniq compare labels));
  let w = String.length (List.hd labels) in
  Alcotest.(check bool) "labels aligned" true
    (List.for_all (fun l -> String.length l = w) labels);
  (* Wide integer-stepped range: no noise decimals. *)
  Alcotest.(check bool) "integer edges carry no decimal point" true
    (Array.for_all
       (fun l -> not (String.contains l '.'))
       (Buckets.distinct_labels [| 0.; 1000.; 2000.; 3000. |]))

let test_json_parse () =
  let open Qs_util.Json in
  (match parse {|{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    (match member "a" v with
    | Some (Arr [ Num 1.; Num 2.5; Str "x\n"; Bool true; Null ]) -> ()
    | _ -> Alcotest.fail "member a mismatch");
    (match Option.bind (member "b" v) (member "c") with
    | Some (Num n) -> Alcotest.(check (float 1e-9)) "-3e2" (-300.) n
    | _ -> Alcotest.fail "member b.c mismatch"));
  (match parse {|"é😀"|} with
  | Ok (Str s) -> Alcotest.(check string) "unicode escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode parse failed");
  (match parse "{\"a\": 1,}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing comma accepted");
  (match parse "[1] tail" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted")

(* Both printers must emit documents [parse] accepts, non-finite floats
   included (JSON has no nan/inf; they print as null). *)
let test_json_print_round_trip () =
  let open Qs_util.Json in
  let v =
    Obj
      [ ("a", Arr [ Num 1.; Num 2.5; Num (-0.125); Str "q\"\\\n\t\001" ]);
        ("b", Obj [ ("c", Bool true); ("d", Null); ("e", Arr []); ("f", Obj []) ]);
        ("g", Num 1e20) ]
  in
  let round name s =
    match parse s with
    | Ok v' -> Alcotest.(check bool) (name ^ " round-trips") true (v' = v)
    | Error e -> Alcotest.failf "%s output does not parse: %s" name e
  in
  round "to_string" (to_string v);
  round "to_line" (to_line v);
  Alcotest.(check bool) "to_line is one line" false
    (String.contains (to_line v) '\n');
  List.iter
    (fun f ->
      let doc = Obj [ ("x", Num f) ] in
      List.iter
        (fun (name, s) ->
          match parse s with
          | Ok v' ->
            Alcotest.(check bool) (name ^ " prints non-finite as null") true
              (v' = Obj [ ("x", Null) ])
          | Error e -> Alcotest.failf "%s of %F does not parse: %s" name f e)
        [ ("to_string", to_string doc); ("to_line", to_line doc) ])
    [ nan; infinity; neg_infinity ]

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Table.sparkline [||]);
  let s = Table.sparkline [| 0.; 1. |] in
  Alcotest.(check bool) "two glyphs" true (String.length s > 0)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      QCheck.assume (Array.length xs > 0);
      let v = Qs_util.Stats.percentile xs p in
      let lo, hi = Qs_util.Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let qcheck_prng_int_range =
  QCheck.Test.make ~name:"Prng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Qs_util.Prng.create ~seed in
      let x = Qs_util.Prng.int r bound in
      x >= 0 && x < bound)

let suite =
  [ Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng invalid bound" `Quick test_prng_int_invalid;
    Alcotest.test_case "prng percent distribution" `Quick test_prng_percent;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "stats mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile empty" `Quick test_stats_percentile_empty;
    Alcotest.test_case "stats min/max/overhead" `Quick test_stats_minmax_overhead;
    Alcotest.test_case "table ascii" `Quick test_table_ascii;
    Alcotest.test_case "table width mismatch" `Quick test_table_width_mismatch;
    Alcotest.test_case "table csv quoting" `Quick test_table_csv_quoting;
    Alcotest.test_case "table csv file" `Quick test_table_save_csv;
    Alcotest.test_case "histogram edge labels" `Quick test_histogram_edge_labels;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json print round-trip" `Quick test_json_print_round_trip;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_int_range
  ]
