(* The latency observatory (lib/obs/latency.ml + harness wiring):

   - bucket geometry: exact unit buckets below 32, [bucket_of] inverts
     [lower_edge], edges are strictly monotone, relative quantization
     error bounded by 1/32;
   - percentile extraction against a known distribution, with the p999
     upper bound clamped to the observed max;
   - merge is exact: per-shard recording then [merge_into] equals
     recording everything into one histogram (QCheck);
   - top-K outlier buffers retain exactly the K largest durations;
   - overhead discipline: [record] and [observe] allocate zero minor
     words per op;
   - spike attribution on a synthetic timeline: every cause matched by
     its span/instant semantics, priority order, threshold filtering;
   - harness neutrality: a seeded simulator run produces a byte-equal
     trace and identical op counts with the recorder on or off
     (recording reads meta-level clocks, never performs effects). *)

module RI = Qs_intf.Runtime_intf
module Latency = Qs_obs.Latency
module Tracer = Qs_obs.Tracer
module Metrics = Qs_obs.Metrics
module Export = Qs_obs.Export
module Json = Qs_util.Json
open Qs_harness

let check = Alcotest.check
let checkb msg = check Alcotest.bool msg
let checki msg = check Alcotest.int msg

(* --- bucket geometry ------------------------------------------------------ *)

let test_bucket_geometry () =
  for v = 0 to 31 do
    checki "unit buckets below 32" v (Latency.bucket_of v)
  done;
  checki "negative clamps to 0" 0 (Latency.bucket_of (-5));
  checki "huge clamps to last" (Latency.n_buckets - 1)
    (Latency.bucket_of max_int);
  (* bucket_of inverts lower_edge, and edges are strictly monotone. *)
  for i = 0 to Latency.n_buckets - 1 do
    checki "bucket_of (lower_edge i) = i" i
      (Latency.bucket_of (Latency.lower_edge i));
    if i > 0 then
      checkb "edges strictly monotone" true
        (Latency.lower_edge i > Latency.lower_edge (i - 1))
  done;
  (* Relative width of any bucket is <= 1/32 of its lower edge (for
     values past the unit range) — the HDR quantization-error bound. *)
  for i = 33 to Latency.n_buckets - 2 do
    let lo = Latency.lower_edge i and hi = Latency.lower_edge (i + 1) in
    checkb "bucket width <= lo/32" true (hi - lo <= max 1 (lo / 32))
  done

let test_percentiles () =
  let t = Latency.create () in
  (* 999 ops at 10 ticks, one at 100_000: p50/p99 stay at the mode's
     bucket, p999 must reach the spike bucket's bound, clamped to max. *)
  for _ = 1 to 999 do
    Latency.record t 10
  done;
  Latency.record t 100_000;
  checki "count" 1000 (Latency.count t);
  checki "max" 100_000 (Latency.max_value t);
  checki "sum" (9_990 + 100_000) (Latency.sum t);
  checki "p50 exact in unit range" 10 (Latency.percentile t 50.);
  checki "p99 exact in unit range" 10 (Latency.percentile t 99.);
  checki "p999 clamps to max" 100_000 (Latency.percentile t 99.9);
  checkb "p999 bucket holds the spike" true
    (Latency.lower_edge (Latency.percentile_bucket t 99.9) <= 100_000);
  checki "empty percentile is 0" 0 (Latency.percentile (Latency.create ()) 99.);
  checkb "out-of-range p raises" true
    (try
       ignore (Latency.percentile t 101.);
       false
     with Invalid_argument _ -> true)

let test_merge_equals_whole =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sharded merge equals one histogram" ~count:50
       QCheck.(
         pair (int_bound 3 |> map (fun s -> s + 2))
           (list_of_size Gen.(int_range 1 200) (int_bound 2_000_000)))
       (fun (shards, samples) ->
         let whole = Latency.create () in
         let parts = Array.init shards (fun _ -> Latency.create ()) in
         List.iteri
           (fun i v ->
             Latency.record whole v;
             Latency.record parts.(i mod shards) v)
           samples;
         let dst = Latency.create () in
         Array.iter (fun p -> Latency.merge_into ~dst p) parts;
         Latency.bucket_counts dst = Latency.bucket_counts whole
         && Latency.count dst = Latency.count whole
         && Latency.sum dst = Latency.sum whole
         && Latency.max_value dst = Latency.max_value whole))

let test_top_k_outliers () =
  let r = Latency.recorder ~n_processes:2 ~n_kinds:3 ~top_k:4 () in
  (* pid 0: durations 1..10 — only the top 4 survive. *)
  for d = 1 to 10 do
    Latency.observe r ~pid:0 ~kind:(d mod 3) ~start:(100 * d) ~dur:d
  done;
  Latency.observe r ~pid:1 ~kind:0 ~start:5 ~dur:50;
  let os = Latency.outliers r in
  checki "K + 1 retained" 5 (List.length os);
  (match os with
  | o :: _ ->
    checki "slowest first" 50 o.Latency.o_dur;
    checki "from pid 1" 1 o.Latency.o_pid
  | [] -> Alcotest.fail "no outliers");
  let pid0 = List.filter (fun o -> o.Latency.o_pid = 0) os in
  check
    Alcotest.(list int)
    "pid 0 keeps its top 4 durations" [ 10; 9; 8; 7 ]
    (List.map (fun o -> o.Latency.o_dur) pid0);
  List.iter
    (fun o ->
      checki "start preserved" (100 * o.Latency.o_dur) o.Latency.o_start;
      checki "kind preserved" (o.Latency.o_dur mod 3) o.Latency.o_kind)
    pid0;
  checki "histograms saw everything" 11 (Latency.count (Latency.merged r));
  checkb "per-kind merge partitions the total" true
    (List.init 3 (fun k -> Latency.count (Latency.merged_kind r ~kind:k))
     |> List.fold_left ( + ) 0 = 11)

(* --- overhead discipline -------------------------------------------------- *)

let words_per_call ~warmup ~n f =
  for i = 1 to warmup do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int n

let test_record_allocation_free () =
  let t = Latency.create () in
  check (Alcotest.float 1e-3) "record: 0 words" 0.
    (words_per_call ~warmup:64 ~n:50_000 (fun i -> Latency.record t (i * 7)));
  let r = Latency.recorder ~n_processes:2 ~n_kinds:3 () in
  check (Alcotest.float 1e-3) "observe: 0 words" 0.
    (words_per_call ~warmup:64 ~n:50_000 (fun i ->
         Latency.observe r ~pid:(i land 1) ~kind:(i mod 3) ~start:i
           ~dur:(i land 1023)))

(* --- spike attribution ---------------------------------------------------- *)

let synthetic_timeline () =
  let t = Tracer.create ~n_processes:4 ~capacity:64 () in
  let r = Tracer.record t in
  (* global fallback episode [100, 200], entered by pid 1, exited by 2 *)
  r ~pid:1 ~time:100 ~ev:RI.Ev_fallback_enter ~a:5 ~b:(-1);
  r ~pid:2 ~time:200 ~ev:RI.Ev_fallback_exit ~a:100 ~b:(-1);
  (* scan on pid 0 over [300, 350] *)
  r ~pid:0 ~time:300 ~ev:RI.Ev_scan_begin ~a:10 ~b:(-1);
  r ~pid:0 ~time:350 ~ev:RI.Ev_scan_end ~a:3 ~b:7;
  (* adopting quiesce on pid 2 at 400; non-adopting on pid 3 at 410 *)
  r ~pid:2 ~time:400 ~ev:RI.Ev_quiesce ~a:7 ~b:1;
  r ~pid:3 ~time:410 ~ev:RI.Ev_quiesce ~a:7 ~b:0;
  (* churn: pid 3 departs at 500 *)
  r ~pid:3 ~time:500 ~ev:RI.Ev_unregister ~a:1 ~b:4;
  (* bag seal on pid 0 at 600 *)
  r ~pid:0 ~time:600 ~ev:RI.Ev_bag_seal ~a:64 ~b:(-1);
  (* neutralization: rooster (pid 0 here) poisons victim pid 3 at 700 *)
  r ~pid:0 ~time:700 ~ev:RI.Ev_neutralize ~a:3 ~b:2;
  Tracer.to_array t

let mk_outlier ~pid ~start ~dur =
  { Latency.o_pid = pid; o_kind = 0; o_start = start; o_dur = dur }

let test_attribution_semantics () =
  let es = synthetic_timeline () in
  let classify o =
    let a = Metrics.attribute_spikes es ~outliers:[ o ] ~threshold:1 in
    match List.filter (fun (_, n) -> n > 0) a.Metrics.attr_counts with
    | [ (c, 1) ] -> c
    | _ -> Alcotest.fail "expected exactly one attributed spike"
  in
  checkb "fallback span is global (any pid)" true
    (classify (mk_outlier ~pid:3 ~start:150 ~dur:30) = Metrics.Fallback);
  checkb "scan span matches its own pid" true
    (classify (mk_outlier ~pid:0 ~start:340 ~dur:20) = Metrics.Scan);
  checkb "scan on another pid does not attribute" true
    (classify (mk_outlier ~pid:1 ~start:340 ~dur:20) = Metrics.Unattributed);
  checkb "adopting quiesce attributes epoch" true
    (classify (mk_outlier ~pid:2 ~start:390 ~dur:20) = Metrics.Epoch);
  checkb "non-adopting quiesce does not" true
    (classify (mk_outlier ~pid:3 ~start:405 ~dur:4) = Metrics.Unattributed);
  checkb "unregister attributes churn" true
    (classify (mk_outlier ~pid:3 ~start:490 ~dur:20) = Metrics.Churn);
  checkb "bag seal attributes" true
    (classify (mk_outlier ~pid:0 ~start:590 ~dur:20) = Metrics.Bag_seal);
  checkb "neutralize matches the victim pid" true
    (classify (mk_outlier ~pid:3 ~start:690 ~dur:20) = Metrics.Neutralize);
  checkb "neutralize does not match the emitter" true
    (classify (mk_outlier ~pid:0 ~start:690 ~dur:20) = Metrics.Unattributed);
  (* Priority: a window covering both the fallback episode and the scan
     is charged to fallback (the dwell subsumes the scans it runs). *)
  checkb "fallback wins over scan" true
    (classify (mk_outlier ~pid:0 ~start:150 ~dur:250) = Metrics.Fallback)

let test_attribution_threshold_and_pct () =
  let es = synthetic_timeline () in
  let outliers =
    [
      mk_outlier ~pid:0 ~start:150 ~dur:30;
      (* fallback *)
      mk_outlier ~pid:0 ~start:340 ~dur:20;
      (* scan, below threshold *)
      mk_outlier ~pid:1 ~start:1_000 ~dur:40;
      (* unattributed *)
    ]
  in
  let a = Metrics.attribute_spikes es ~outliers ~threshold:25 in
  checki "threshold filters the scan outlier" 2 a.Metrics.attr_total;
  checki "fallback counted" 1 (List.assoc Metrics.Fallback a.Metrics.attr_counts);
  checki "scan filtered out" 0 (List.assoc Metrics.Scan a.Metrics.attr_counts);
  checki "unattributed counted" 1
    (List.assoc Metrics.Unattributed a.Metrics.attr_counts);
  check (Alcotest.float 1e-6) "50% attributed" 50. (Metrics.attributed_pct a);
  let empty = Metrics.attribute_spikes es ~outliers:[] ~threshold:1 in
  check (Alcotest.float 1e-6) "no spikes: 0%" 0. (Metrics.attributed_pct empty)

(* --- harness wiring ------------------------------------------------------- *)

let sim_setup ?latency ?(duration = 150_000) ~sink () =
  {
    (Sim_exp.default_setup ~ds:Cset.List ~scheme:Qs_smr.Scheme.Cadence
       ~n_processes:4
       ~workload:(Qs_workload.Spec.make ~key_range:64 ~update_pct:50))
    with
    duration;
    seed = 23;
    latency;
    sink;
  }

(* The service target, open loop: a bursty two-tenant trace whose arrival
   times make workers idle and queue, so the recorder's start stamps are
   scheduled arrivals, not clock reads. *)
let kv_open_loop_target =
  let spec =
    Qs_workload.Kv_spec.make ~tenants:2 ~keys_per_tenant:256
      ~mix:{ get_pct = 60; put_pct = 20; del_pct = 10; scan_pct = 10 }
      ~base_gap:2_000
      ~burst:{ every = 64; len = 8; factor = 4 }
      ()
  in
  Target.Kv
    { gen =
        Qs_workload.Kv_gen.make spec ~n_processes:4 ~ops_per_process:1_024
          ~seed:23;
      n_shards = 4 }

let test_sim_recording_schedule_neutral () =
  (* The recorder must be invisible to the seeded schedule: byte-equal
     traces and identical op counts with it on or off — recording reads
     [Scheduler.clock_of], never performs a [now] effect. Checked for a
     set and for the open-loop KV service. *)
  List.iter
    (fun (name, base) ->
      let run latency =
        let tracer = Tracer.create ~n_processes:4 ~capacity:(1 lsl 14) () in
        let r =
          Sim_exp.run { base with latency; sink = Some (Tracer.sink tracer) }
        in
        (r, Export.csv tracer)
      in
      let r_off, trace_off = run None in
      let rec_ =
        Latency.recorder ~n_processes:4
          ~n_kinds:(Target.n_kinds base.Sim_exp.target) ()
      in
      let r_on, trace_on = run (Some rec_) in
      checkb (name ^ ": byte-equal traces") true (String.equal trace_off trace_on);
      checki (name ^ ": identical ops") r_off.Sim_exp.ops_total
        r_on.Sim_exp.ops_total;
      check
        Alcotest.(array int)
        (name ^ ": identical per-worker ops") r_off.Sim_exp.per_worker_ops
        r_on.Sim_exp.per_worker_ops;
      checki (name ^ ": one sample per completed op") r_on.Sim_exp.ops_total
        (Latency.count (Latency.merged rec_));
      checkb (name ^ ": durations are positive virtual time") true
        (Latency.percentile (Latency.merged rec_) 50. > 0))
    [ ("set", sim_setup ~sink:None ());
      ("kv open loop", { (sim_setup ~sink:None ()) with target = kv_open_loop_target }) ]

let test_sim_generator_replay () =
  (* Each worker draws its ops from its own seeded generator, so two
     schemes replay the same logical op sequence per process: the shorter
     run's sequence is a prefix of the longer's, and every kind is
     sampled under both. *)
  let n = 4 in
  let run scheme =
    let rec_ = Latency.recorder ~n_processes:n ~n_kinds:Qs_workload.Spec.n_kinds () in
    let history = Qs_verify.History.create ~n in
    let r =
      Sim_exp.run
        { (sim_setup ~latency:rec_ ~sink:None ()) with
          Sim_exp.scheme;
          history = Some history }
    in
    let ops pid =
      Qs_verify.History.entries history
      |> List.filter (fun (e : Qs_verify.History.entry) -> e.pid = pid)
      |> List.sort (fun (a : Qs_verify.History.entry) b -> compare a.inv b.inv)
      |> List.map (fun (e : Qs_verify.History.entry) -> (e.op, e.key))
    in
    (r, rec_, List.init n ops)
  in
  let r1, rec1, ops1 = run Qs_smr.Scheme.Cadence in
  let r2, rec2, ops2 = run Qs_smr.Scheme.Qsbr in
  checki "both sound" 0 (r1.Sim_exp.violations + r2.Sim_exp.violations);
  checkb "runs did work" true (min r1.Sim_exp.ops_total r2.Sim_exp.ops_total > 0);
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> x = y && is_prefix a b
    | _ :: _, [] -> false
  in
  List.iteri
    (fun pid (a, b) ->
      checkb
        (Printf.sprintf "p%d replays the same ops (%d vs %d)" pid (List.length a)
           (List.length b))
        true
        (is_prefix a b || is_prefix b a))
    (List.combine ops1 ops2);
  (* Same per-kind distribution shape: every kind sampled under both. *)
  List.iter
    (fun k ->
      let c1 = Latency.count (Latency.merged_kind rec1 ~kind:k)
      and c2 = Latency.count (Latency.merged_kind rec2 ~kind:k) in
      checkb
        (Printf.sprintf "kind %s sampled in both runs"
           (Qs_workload.Spec.kind_name k))
        true
        (c1 > 0 && c2 > 0))
    [ 0; 1; 2 ]

let test_sim_stall_attribution () =
  (* The acceptance scenario in miniature: a stalled process under
     QSense C=48 forces fallback; the p999-bucket outliers must be
     dominated by attributed causes. *)
  let tracer = Tracer.create ~n_processes:4 ~capacity:(1 lsl 15) () in
  let rec_ =
    Latency.recorder ~n_processes:4 ~n_kinds:Qs_workload.Spec.n_kinds ()
  in
  let setup =
    {
      (Sim_exp.default_setup ~ds:Cset.List ~scheme:Qs_smr.Scheme.Qsense
         ~n_processes:4
         ~workload:(Qs_workload.Spec.make ~key_range:32 ~update_pct:50))
      with
      duration = 600_000;
      seed = 23;
      latency = Some rec_;
      (* the paper's robustness scenario: the victim never resumes, so
         QSense sits in fallback from ~150k ticks to the end and the
         tail of the latency distribution is fallback dwell *)
      faults = [ Qs_sim.Scheduler.Stall_at { pid = 3; at = 20_000; ticks = 600_000 } ];
      smr_tweak =
        (fun c -> { c with Qs_smr.Smr_intf.switch_threshold = 48 });
      sink = Some (Tracer.sink tracer);
    }
  in
  let r = Sim_exp.run setup in
  checki "sound" 0 r.Sim_exp.violations;
  let es = Tracer.to_array tracer in
  checkb "stall forced fallback" true
    (Metrics.fallback_episodes es <> []);
  let merged = Latency.merged rec_ in
  let threshold =
    Latency.lower_edge (Latency.percentile_bucket merged 99.9)
  in
  let a =
    Metrics.attribute_spikes es ~outliers:(Latency.outliers rec_) ~threshold
  in
  checkb "p999 spikes observed" true (a.Metrics.attr_total > 0);
  checkb
    (Printf.sprintf "≥80%% of p999 spikes attributed (got %.0f%%)"
       (Metrics.attributed_pct a))
    true
    (Metrics.attributed_pct a >= 80.)

let suite =
  [ Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
    Alcotest.test_case "percentile extraction" `Quick test_percentiles;
    test_merge_equals_whole;
    Alcotest.test_case "top-K outlier buffers" `Quick test_top_k_outliers;
    Alcotest.test_case "recording is allocation-free" `Quick
      test_record_allocation_free;
    Alcotest.test_case "attribution semantics" `Quick
      test_attribution_semantics;
    Alcotest.test_case "attribution threshold + pct" `Quick
      test_attribution_threshold_and_pct;
    Alcotest.test_case "sim recording is schedule-neutral" `Slow
      test_sim_recording_schedule_neutral;
    Alcotest.test_case "generator replay across schemes" `Slow
      test_sim_generator_replay;
    Alcotest.test_case "stall spikes attribute >= 80%" `Slow
      test_sim_stall_attribution
  ]
