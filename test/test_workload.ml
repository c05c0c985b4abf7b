(* Workload specification tests. *)

module Spec = Qs_workload.Spec

let test_spec_validation () =
  Alcotest.check_raises "bad range"
    (Invalid_argument "Spec.make: key_range must be positive") (fun () ->
      ignore (Spec.make ~key_range:0 ~update_pct:10));
  Alcotest.check_raises "bad pct"
    (Invalid_argument "Spec.make: update_pct must be in [0, 100]") (fun () ->
      ignore (Spec.make ~key_range:10 ~update_pct:101))

let test_spec_distribution () =
  let spec = Spec.make ~key_range:100 ~update_pct:40 in
  let prng = Qs_util.Prng.create ~seed:5 in
  let n = 100_000 in
  let searches = ref 0 and inserts = ref 0 and deletes = ref 0 in
  for _ = 1 to n do
    match Spec.pick prng spec with
    | Spec.Search k | Spec.Insert k | Spec.Delete k when k < 0 || k >= 100 ->
      Alcotest.fail "key out of range"
    | Spec.Search _ -> incr searches
    | Spec.Insert _ -> incr inserts
    | Spec.Delete _ -> incr deletes
  done;
  let pct x = 100 * x / n in
  Alcotest.(check bool) "searches ~60%" true (abs (pct !searches - 60) <= 2);
  Alcotest.(check bool) "inserts ~20%" true (abs (pct !inserts - 20) <= 2);
  Alcotest.(check bool) "deletes ~20%" true (abs (pct !deletes - 20) <= 2)

let test_initial_keys () =
  let spec = Spec.make ~key_range:100 ~update_pct:50 in
  let keys = Spec.initial_keys spec in
  Alcotest.(check int) "half the range" 50 (List.length keys);
  List.iter
    (fun k ->
      if k < 0 || k >= 100 then Alcotest.fail "initial key out of range";
      if k mod 2 <> 0 then Alcotest.fail "expected even keys")
    keys;
  Alcotest.(check (list int)) "distinct" (List.sort_uniq compare keys) keys

(* Regression: odd update percentages used to split asymmetrically —
   update_pct = 1 gave 0% inserts but 1% deletes (integer u/2 for the
   insert threshold, the whole remainder to deletes). The census over a
   large stream must now show both masses within tolerance of u/2 for
   every odd u, and in the extreme u = 1 case inserts must occur at all. *)
let test_spec_odd_pct_split () =
  List.iter
    (fun u ->
      let spec = Spec.make ~key_range:64 ~update_pct:u in
      let prng = Qs_util.Prng.create ~seed:(100 + u) in
      let n = 200_000 in
      let inserts = ref 0 and deletes = ref 0 in
      for _ = 1 to n do
        match Spec.pick prng spec with
        | Spec.Insert _ -> incr inserts
        | Spec.Delete _ -> incr deletes
        | Spec.Search _ -> ()
      done;
      let expect = float_of_int u /. 2. in
      let pct x = 100. *. float_of_int x /. float_of_int n in
      let tol = 0.35 in
      if Float.abs (pct !inserts -. expect) > tol then
        Alcotest.failf "u=%d: inserts %.2f%% (want %.2f%%)" u (pct !inserts)
          expect;
      if Float.abs (pct !deletes -. expect) > tol then
        Alcotest.failf "u=%d: deletes %.2f%% (want %.2f%%)" u (pct !deletes)
          expect;
      if u >= 1 && !inserts = 0 then
        Alcotest.failf "u=%d: no inserts at all" u)
    [ 1; 3; 7; 25; 99 ]

(* Even update percentages must keep the exact pre-fix behaviour: the fix
   only touches the odd leftover percent, so streams generated with even
   [update_pct] (all committed corpora and benches) stay bit-identical. *)
let test_spec_even_pct_unchanged () =
  let spec = Spec.make ~key_range:64 ~update_pct:40 in
  let prng = Qs_util.Prng.create ~seed:77 in
  let reference = Qs_util.Prng.create ~seed:77 in
  for _ = 1 to 10_000 do
    let op = Spec.pick prng spec in
    (* replay the pre-fix decision procedure on a mirrored PRNG *)
    let key = Qs_util.Prng.int reference 64 in
    let pct = Qs_util.Prng.percent reference in
    let expected =
      if pct < 20 then Spec.Insert key
      else if pct < 40 then Spec.Delete key
      else Spec.Search key
    in
    if op <> expected then Alcotest.fail "even-pct stream diverged"
  done

let test_latency_recording () =
  let rec_ = Qs_obs.Latency.recorder ~n_processes:2 ~n_kinds:Spec.n_kinds () in
  let r =
    Qs_harness.Sim_exp.run
      { (Qs_harness.Sim_exp.default_setup ~ds:Qs_harness.Cset.List
           ~scheme:Qs_smr.Scheme.Qsense ~n_processes:2
           ~workload:(Spec.updates_50 ~key_range:64)) with
        duration = 60_000;
        latency = Some rec_ }
  in
  let h = Qs_obs.Latency.merged rec_ in
  Alcotest.(check int) "one latency per op" r.ops_total (Qs_obs.Latency.count h);
  (* the 0th percentile is the smallest sample's bucket: bucket 0 holds
     exactly the value 0 (and clamped negatives) *)
  if Qs_obs.Latency.percentile h 0. <= 0 then
    Alcotest.fail "non-positive latency"

let suite =
  [ Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "spec distribution" `Quick test_spec_distribution;
    Alcotest.test_case "initial keys" `Quick test_initial_keys;
    Alcotest.test_case "odd update pct splits evenly" `Quick
      test_spec_odd_pct_split;
    Alcotest.test_case "even update pct bit-identical" `Quick
      test_spec_even_pct_unchanged;
    Alcotest.test_case "latency recording" `Quick test_latency_recording
  ]
