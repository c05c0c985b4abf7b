(* Tests for the benchmark's own helpers: the window estimator, the
   percentile sample-count rule, the model replay behind the correctness
   gate, and the counting sink's retired running maximum. *)

open Perfbench
module Ksp = Qs_workload.Kv_spec
module Rt = Qs_intf.Runtime_intf

let feq = Alcotest.float 1e-9

let test_windows () =
  (* 1000 requests in 1 ms, 0.5 ms and 2 ms: 1, 2 and 0.5 Mops/s *)
  let w = Est.windows ~reqs:1000 [| 1_000_000; 500_000; 2_000_000 |] in
  Alcotest.check feq "few windows: the fastest" 2.0 w.fast_mops;
  Alcotest.check feq "median" 1.0 w.median_mops;
  Alcotest.check feq "worst" 0.5 w.worst_mops;
  Alcotest.(check int) "windows" 3 w.n_windows;
  Alcotest.check feq "spread: median is half the fast end" 0.5
    (Est.window_spread w);
  (* 200 windows at 1 Mops/s but two lucky ones at 4: the fast end is the
     99th percentile, so the two lucky windows do not set it *)
  let durs = Array.make 200 1_000_000 in
  durs.(17) <- 250_000;
  durs.(123) <- 250_000;
  Alcotest.check feq "many windows: 99th percentile" 1.0
    (Est.windows ~reqs:1000 durs).fast_mops;
  durs.(50) <- 250_000;
  Alcotest.check feq "a third lucky window reaches it" 4.0
    (Est.windows ~reqs:1000 durs).fast_mops;
  Alcotest.check feq "even count takes the middle mean" 1.5
    (Est.median_float [| 1.; 2.; 4.; 1. |]);
  Alcotest.check_raises "no windows" (Invalid_argument "Est.windows: no windows")
    (fun () -> ignore (Est.windows ~reqs:1 [||]))

let test_percentile_rule () =
  Alcotest.(check int) "p999 needs 10,000 samples" 10_000
    (Est.samples_needed 99.9);
  Alcotest.(check int) "p99 needs 1,000" 1_000 (Est.samples_needed 99.);
  let sorted n = Array.init n (fun i -> i + 1) in
  let q = Est.percentile (sorted 10_000) 99.9 in
  Alcotest.(check (list int)) "nearest rank, 10 beyond" [ 9_990; 10_000; 10 ]
    [ q.value; q.samples; q.beyond ];
  Alcotest.(check bool) "10 beyond is enough" true (Est.tail_ok q);
  let q = Est.percentile (sorted 9_999) 99.9 in
  Alcotest.(check int) "one sample short leaves 9 beyond" 9 q.beyond;
  Alcotest.(check bool) "and fails the rule" false (Est.tail_ok q);
  Alcotest.(check int) "p50 of 4" 2 (Est.percentile [| 1; 2; 3; 4 |] 50.).value;
  Alcotest.(check int) "p100 is the max" 4 (Est.percentile [| 1; 2; 3; 4 |] 100.).value;
  (* medians 5, 1 and 3: the two quietest segments are the 2nd and 3rd *)
  let pool = Est.quiet_pool ~keep:2 ~len:2 [| 5; 9; 1; 7; 3; 3 |] in
  Alcotest.(check (array int)) "quietest pooled" [| 1; 3; 3; 7 |] pool

let sample_ops =
  [| Ksp.Get 2; Ksp.Get 3; Ksp.Put 3; Ksp.Put 3; Ksp.Del 4; Ksp.Del 4;
     Ksp.Scan (1, 5) |]

let test_model_replay () =
  let tally, contents =
    Model.replay ~prefill:[ 2; 4 ] ~op:(fun i -> sample_ops.(i))
      ~n:(Array.length sample_ops)
  in
  (* get 2 hits; put 3 adds once; del 4 removes once; scan sees 2 and 3 *)
  Alcotest.(check (array int)) "tally" [| 1; 1; 1; 2 |] tally;
  Alcotest.(check (list int)) "contents" [ 2; 3 ] contents;
  let expected = (tally, contents) in
  Alcotest.(check int) "agrees with itself" 0
    (Model.disagreements ~expected ~got:(Array.copy tally, contents));
  Alcotest.(check int) "one tally off" 1
    (Model.disagreements ~expected ~got:([| 1; 1; 2; 2 |], contents));
  Alcotest.(check int) "contents off by a missing and an extra key" 2
    (Model.disagreements ~expected ~got:(tally, [ 2; 5 ]))

(* The gate end to end: a real one-worker service replaying a generated
   trace agrees with the model exactly, and a corrupted tally does not. *)
let test_gate_on_service () =
  let w = Workloads.read_small in
  let requests = 5_000 in
  let p = { Real.warmup = requests; rounds = 0; window = 0; segment = 0; census = 0 } in
  let tr = Real.make_trace w ~seed:3 ~requests in
  Qs_real.Real_runtime.register_self 0;
  let svc = Real.K.create ~n_shards:Real.n_shards (Real.config Qs_smr.Scheme.Hp) in
  let ctx = Real.K.register svc ~pid:0 in
  Array.iter (fun k -> ignore (Real.K.put ctx k)) (Real.prefill_keys w ~seed:3);
  let tally = Model.new_tally () in
  Real.Dk.replay ctx tally tr ~first:0 ~n:requests;
  let expected = Real.expected_outcome w ~seed:3 p tr in
  Alcotest.(check int) "service matches the model" 0
    (Real.check_service ~expected svc ctx tally);
  tally.(0) <- tally.(0) + 1;
  Alcotest.(check int) "a wrong answer is caught" 1
    (Real.check_service ~expected svc ctx tally)

let test_sink_running_max () =
  let t = Counting_sink.create ~n_processes:2 in
  let feed ?(pid = 0) ?(time = 0) ?(a = -1) ev =
    Counting_sink.record t ~pid ~time ~ev ~a ~b:(-1)
  in
  (* live: 1 2 3 2 3 2 1 2 *)
  List.iter feed
    Rt.[ Ev_retire; Ev_retire; Ev_retire; Ev_free; Ev_retire; Ev_free;
         Ev_free; Ev_retire ];
  Alcotest.(check int) "peak" 3 t.live_peak;
  Alcotest.(check int) "live" 2 t.live;
  (* bag frees are summaries of per-node frees: they must not count *)
  feed ~a:2 Rt.Ev_bag_free;
  Alcotest.(check int) "bag free leaves live alone" 2 t.live;
  Alcotest.(check int) "retires" 5 (Counting_sink.count t Rt.Ev_retire);
  feed ~pid:1 ~time:10 Rt.Ev_scan_begin;
  feed ~pid:1 ~time:25 ~a:0 Rt.Ev_scan_end;
  feed ~pid:0 ~time:30 Rt.Ev_scan_begin;
  feed ~pid:0 ~time:35 ~a:6 Rt.Ev_scan_end;
  feed ~pid:(-1) Rt.Ev_rooster_wake;
  feed ~a:5 Rt.Ev_adopt;
  feed ~a:100 Rt.Ev_fallback_exit;
  Alcotest.(check int) "scan busy" 20 t.scan_busy;
  Alcotest.check feq "frees per scan" 3.0 (Counting_sink.frees_per_scan t);
  Alcotest.check feq "empty scans" 50.0 (Counting_sink.empty_scans_pct t);
  Alcotest.(check int) "adopted" 5 t.adopted_nodes;
  Alcotest.(check int) "dwell" 100 t.fallback_dwell

let test_catalogue () =
  let names l = List.map (fun ((m : Report.metric), _) -> m.name) l in
  Alcotest.(check int) "every per-layer metric, n/a as 0"
    (List.length Layers.per_layer)
    (List.length (Layers.select ~traced:true [ ("obs.record_ns", 1.) ]));
  Alcotest.check_raises "end-to-end metrics are all required"
    (Invalid_argument "Layers.select: missing metric throughput_mops")
    (fun () -> ignore (names (Layers.select ~traced:false [])));
  Alcotest.(check string) "json"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
    (Report.json_result ~correct:true ~attempted:3 ~failed:0
       [ Report.metric "a" "s" 1.5 ])

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "window estimator" `Quick test_windows;
          Alcotest.test_case "percentile sample-count rule" `Quick
            test_percentile_rule;
          Alcotest.test_case "model replay" `Quick test_model_replay;
          Alcotest.test_case "gate on a real service" `Quick
            test_gate_on_service;
          Alcotest.test_case "counting sink running max" `Quick
            test_sink_running_max;
          Alcotest.test_case "metric catalogue" `Quick test_catalogue ] ) ]
