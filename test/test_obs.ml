(* The reclamation observatory (lib/obs + the runtime emit pathway):

   - ring semantics: fixed capacity, wrap-around drops the oldest events
     with a monotone [dropped] counter, out-of-range pids land in the
     system ring;
   - overhead discipline: recording allocates zero minor words per event
     (the Gc-words pin CI relies on);
   - determinism and neutrality: a seeded simulator run produces a
     bit-identical trace across two runs, and installing a sink changes no
     explorer verdict on the committed corpus (trace emission is
     schedule-neutral — DESIGN.md §9);
   - derived metrics on synthetic timelines (age join, global fallback
     episode pairing, limbo resync, epoch lags);
   - exporters: the Chrome trace-event JSON parses back via
     {!Qs_util.Json} with every B strictly matched by an E, and the CSV
     has one row per retained event;
   - the paper-level assertions tracing exists to surface: Cadence frees
     no node younger than [T + epsilon] (Theorem 5.1's premise, visible in
     the age-at-free distribution), and QSense reports [Fallback] mode,
     with an open trace episode, exactly while it sits in fallback. *)

module RI = Qs_intf.Runtime_intf
module Tracer = Qs_obs.Tracer
module Metrics = Qs_obs.Metrics
module Export = Qs_obs.Export
module Json = Qs_util.Json
open Qs_harness

let check = Alcotest.check
let checkb msg = check Alcotest.bool msg
let checki msg = check Alcotest.int msg

(* --- ring semantics ------------------------------------------------------ *)

let test_wraparound () =
  let t = Tracer.create ~n_processes:2 ~capacity:4 () in
  for i = 1 to 6 do
    Tracer.record t ~pid:0 ~time:i ~ev:RI.Ev_retire ~a:(100 + i) ~b:(-1)
  done;
  checki "length capped at capacity" 4 (Tracer.length t ~pid:0);
  checki "two dropped" 2 (Tracer.dropped t ~pid:0);
  let es = Tracer.ring_to_array t ~pid:0 in
  checki "oldest retained is event 3" 3 es.(0).Tracer.time;
  checki "newest retained is event 6" 6 es.(3).Tracer.time;
  checki "payload a" 103 es.(0).Tracer.a;
  Tracer.record t ~pid:0 ~time:7 ~ev:RI.Ev_free ~a:107 ~b:(-1);
  checki "dropped is monotone" 3 (Tracer.dropped t ~pid:0);
  checki "other ring untouched" 0 (Tracer.length t ~pid:1);
  (* Unregistered emitters (rooster pid -1, out-of-range pids) land in the
     system ring (index n_processes) instead of corrupting a worker ring. *)
  Tracer.record t ~pid:(-1) ~time:8 ~ev:RI.Ev_rooster_wake ~a:(-1) ~b:(-1);
  Tracer.record t ~pid:99 ~time:9 ~ev:RI.Ev_rooster_wake ~a:(-1) ~b:(-1);
  checki "system ring collects strays" 2 (Tracer.length t ~pid:2);
  checki "total" 6 (Tracer.total t);
  checki "total dropped" 3 (Tracer.total_dropped t);
  Tracer.clear t;
  checki "clear empties" 0 (Tracer.total t);
  checki "clear zeroes dropped" 0 (Tracer.total_dropped t)

let test_merged_timeline_sorted () =
  let t = Tracer.create ~n_processes:3 ~capacity:16 () in
  Tracer.record t ~pid:2 ~time:30 ~ev:RI.Ev_retire ~a:1 ~b:(-1);
  Tracer.record t ~pid:0 ~time:10 ~ev:RI.Ev_retire ~a:2 ~b:(-1);
  Tracer.record t ~pid:1 ~time:20 ~ev:RI.Ev_retire ~a:3 ~b:(-1);
  Tracer.record t ~pid:1 ~time:10 ~ev:RI.Ev_free ~a:4 ~b:(-1);
  let es = Tracer.to_array t in
  checki "all retained" 4 (Array.length es);
  Array.iteri
    (fun i (e : Tracer.entry) ->
      if i > 0 then
        checkb "sorted by (time, pid)" true
          (compare
             (es.(i - 1).Tracer.time, es.(i - 1).Tracer.pid)
             (e.Tracer.time, e.Tracer.pid)
          <= 0))
    es;
  checki "tie broken by pid" 0 es.(0).Tracer.pid

(* --- overhead discipline -------------------------------------------------- *)

(* Minor words allocated per [record] through the sink, measured exactly as
   the runtimes drive it. Tail-called in a loop after a warm-up so the only
   allocation candidates are [record] itself. *)
let words_per_event () =
  let t = Tracer.create ~n_processes:1 ~capacity:256 () in
  let s = Tracer.sink t in
  let n = 50_000 in
  for i = 1 to 64 do
    s.RI.record ~pid:0 ~time:i ~ev:RI.Ev_free ~a:i ~b:i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    s.RI.record ~pid:0 ~time:i ~ev:RI.Ev_free ~a:i ~b:i
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int n

let test_record_allocation_free () =
  check (Alcotest.float 1e-3) "0 words/event" 0. (words_per_event ())

(* --- traced simulator runs ------------------------------------------------ *)

let t_plus_eps = Sim_exp.default_rooster_interval + Sim_exp.default_epsilon

let traced_run ?(duration = 400_000) ?(key_range = 64) ?delays
    ?(smr_tweak = Fun.id) ~scheme () =
  let tracer = Tracer.create ~n_processes:4 ~capacity:(1 lsl 15) () in
  let setup =
    { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:4
         ~workload:(Qs_workload.Spec.make ~key_range ~update_pct:50)) with
      duration;
      seed = 11;
      delays;
      smr_tweak;
      sink = Some (Tracer.sink tracer) }
  in
  let r = Sim_exp.run setup in
  (tracer, r)

let frequent_scans c =
  { c with Qs_smr.Smr_intf.scan_threshold = 16 }

let test_seeded_trace_bit_identical () =
  let csv_of () =
    let tracer, _ = traced_run ~scheme:Qs_smr.Scheme.Cadence ~smr_tweak:frequent_scans () in
    Export.csv tracer
  in
  let a = csv_of () and b = csv_of () in
  checkb "two seeded runs give byte-equal traces" true (String.equal a b);
  checkb "trace is non-trivial" true (String.length a > 1_000)

let test_cadence_age_floor () =
  let tracer, r =
    traced_run ~scheme:Qs_smr.Scheme.Cadence ~smr_tweak:frequent_scans ()
  in
  checki "sound" 0 r.Sim_exp.violations;
  let es = Tracer.to_array tracer in
  let ages = Metrics.ages_at_free es in
  checkb "frees observed" true (Array.length ages > 0);
  let min_age = Array.fold_left min max_int ages in
  checkb
    (Printf.sprintf "min age at free %d >= T+eps %d" min_age t_plus_eps)
    true
    (min_age >= t_plus_eps);
  (match Metrics.age_histogram es with
  | Some h -> checki "histogram covers every age" (Array.length ages)
                (Qs_obs.Latency.count h)
  | None -> Alcotest.fail "age_histogram None despite frees");
  (* The trace agrees with the scheme's own counters (frees in the trace
     happen during measured time; the report adds none after the sink is
     up, so trace <= report). *)
  checkb "trace frees <= scheme frees" true
    (Metrics.frees_total es <= r.Sim_exp.report.smr.frees)

let stall_delays ~until = { Sim_exp.victim = 3; windows = [ (50_000, until) ] }
let qsense_c48 c = { c with Qs_smr.Smr_intf.switch_threshold = 48 }

let test_fallback_live () =
  (* Victim stalls to the end of the run: QSense must sit in fallback at
     the end, with an open trace episode. *)
  let tracer, r =
    traced_run ~scheme:Qs_smr.Scheme.Qsense ~key_range:32 ~duration:800_000
      ~delays:(stall_delays ~until:max_int) ~smr_tweak:qsense_c48 ()
  in
  let smr = r.Sim_exp.report.smr in
  checkb "in fallback at end" true (smr.mode = Qs_smr.Smr_intf.Fallback);
  checki "no completed episode: exit-only ticks stay 0" 0 smr.fallback_ticks;
  let eps = Metrics.fallback_episodes (Tracer.to_array tracer) in
  checkb "open episode in trace" true
    (List.exists (fun e -> e.Metrics.exit_time = None) eps)

let test_fallback_round_trip () =
  (* Victim resumes mid-run: the round-trip completes, the mode returns
     to [Fast], and the trace shows one closed global episode whose
     exit may come from a different pid than the enter. *)
  let tracer, r =
    traced_run ~scheme:Qs_smr.Scheme.Qsense ~key_range:32 ~duration:1_500_000
      ~delays:(stall_delays ~until:500_000) ~smr_tweak:qsense_c48 ()
  in
  let smr = r.Sim_exp.report.smr in
  checkb "round trip" true (smr.fallback_entries >= 1 && smr.fallback_exits >= 1);
  checkb "back on fast path" true (smr.mode = Qs_smr.Smr_intf.Fast);
  checkb "exit-only dwell accounted" true (smr.fallback_ticks > 0);
  let eps = Metrics.fallback_episodes (Tracer.to_array tracer) in
  (match List.find_opt (fun e -> e.Metrics.exit_time <> None) eps with
  | Some e ->
    let exit_t = Option.get e.Metrics.exit_time in
    checkb "episode is ordered" true (exit_t > e.Metrics.enter_time);
    (match e.Metrics.dwell with
    | Some d -> checkb "scheme dwell positive" true (d > 0)
    | None -> Alcotest.fail "closed episode without dwell")
  | None -> Alcotest.fail "no closed fallback episode in trace")

let test_sink_changes_no_corpus_outcome () =
  let path =
    if Sys.file_exists "explorer.corpus" then "explorer.corpus"
    else "test/explorer.corpus"
  in
  let cases = Explorer.load_corpus path in
  checkb "corpus non-empty" true (cases <> []);
  List.iteri
    (fun i c ->
      (* Every 4th case keeps the runtime reasonable while still covering
         hp/cadence/qsense and fair/pct/fault schedules. *)
      if i mod 4 = 0 then begin
        let o = Explorer.run_one c in
        let tracer =
          Tracer.create ~n_processes:c.Explorer.n_processes ~capacity:4096 ()
        in
        let o' = Explorer.run_one ~sink:(Tracer.sink tracer) c in
        checkb "same verdict" true
          (Explorer.same_class o.Explorer.verdict o'.Explorer.verdict);
        checki "same ops" o.Explorer.ops o'.Explorer.ops;
        checki "same steps" o.Explorer.steps o'.Explorer.steps;
        checkb "trace captured" true (Tracer.total tracer > 0)
      end)
    cases

(* --- derived metrics on synthetic timelines ------------------------------- *)

let test_metrics_age_join () =
  let t = Tracer.create ~n_processes:2 ~capacity:32 () in
  let r = Tracer.record t in
  (* b < 0: age recovered by joining on the node id's last retire. *)
  r ~pid:0 ~time:10 ~ev:RI.Ev_retire ~a:5 ~b:1;
  r ~pid:0 ~time:100 ~ev:RI.Ev_free ~a:5 ~b:(-1);
  (* b >= 0: the scheme's own (now - ts) wins over the join. *)
  r ~pid:1 ~time:20 ~ev:RI.Ev_retire ~a:6 ~b:1;
  r ~pid:1 ~time:120 ~ev:RI.Ev_free ~a:6 ~b:77;
  (* free without a visible retire: skipped. *)
  r ~pid:0 ~time:130 ~ev:RI.Ev_free ~a:9 ~b:(-1);
  (* id reuse joins against the most recent retire. *)
  r ~pid:0 ~time:140 ~ev:RI.Ev_retire ~a:5 ~b:1;
  r ~pid:0 ~time:150 ~ev:RI.Ev_free ~a:5 ~b:(-1);
  let ages = Metrics.ages_at_free (Tracer.to_array t) in
  check
    Alcotest.(array int)
    "ages in timeline order" [| 90; 77; 10 |] ages

let test_metrics_fallback_global_pairing () =
  let t = Tracer.create ~n_processes:3 ~capacity:32 () in
  let r = Tracer.record t in
  r ~pid:0 ~time:30 ~ev:RI.Ev_fallback_enter ~a:9 ~b:(-1);
  (* Exit emitted by a different process than the enter. *)
  r ~pid:2 ~time:200 ~ev:RI.Ev_fallback_exit ~a:170 ~b:(-1);
  r ~pid:1 ~time:300 ~ev:RI.Ev_fallback_enter ~a:4 ~b:(-1);
  match Metrics.fallback_episodes (Tracer.to_array t) with
  | [ e1; e2 ] ->
    checki "first enterer" 0 e1.Metrics.ep_pid;
    checkb "first closed at 200" true (e1.Metrics.exit_time = Some 200);
    checkb "scheme dwell carried" true (e1.Metrics.dwell = Some 170);
    checki "limbo at enter" 9 e1.Metrics.limbo_at_enter;
    checki "second enterer" 1 e2.Metrics.ep_pid;
    checkb "second still open" true (e2.Metrics.exit_time = None)
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps)

let test_metrics_limbo_and_lags () =
  let t = Tracer.create ~n_processes:2 ~capacity:32 () in
  let r = Tracer.record t in
  r ~pid:0 ~time:10 ~ev:RI.Ev_retire ~a:1 ~b:1;
  r ~pid:0 ~time:20 ~ev:RI.Ev_retire ~a:2 ~b:2;
  (* resync: the scheme says depth 7 after this push *)
  r ~pid:0 ~time:30 ~ev:RI.Ev_retire ~a:3 ~b:7;
  r ~pid:0 ~time:40 ~ev:RI.Ev_free ~a:1 ~b:(-1);
  let series = Metrics.limbo_series (Tracer.to_array t) ~pid:0 in
  check
    Alcotest.(array (pair int int))
    "series with resync" [| (10, 1); (20, 2); (30, 7); (40, 6) |] series;
  checki "max limbo" 7 (Metrics.max_limbo (Tracer.to_array t) ~pid:0);
  (* epoch lags: first adopting quiesce per pid per advance *)
  let t2 = Tracer.create ~n_processes:2 ~capacity:32 () in
  let r2 = Tracer.record t2 in
  r2 ~pid:0 ~time:100 ~ev:RI.Ev_epoch_advance ~a:1 ~b:(-1);
  r2 ~pid:1 ~time:150 ~ev:RI.Ev_quiesce ~a:1 ~b:1;
  r2 ~pid:1 ~time:160 ~ev:RI.Ev_quiesce ~a:1 ~b:1 (* second adopt: ignored *);
  r2 ~pid:0 ~time:180 ~ev:RI.Ev_quiesce ~a:1 ~b:0 (* not adopting *);
  r2 ~pid:0 ~time:190 ~ev:RI.Ev_quiesce ~a:1 ~b:1;
  check
    Alcotest.(array int)
    "lags" [| 50; 90 |]
    (Metrics.epoch_lags (Tracer.to_array t2))

let test_metrics_membership_counters () =
  let t = Tracer.create ~n_processes:3 ~capacity:32 () in
  let r = Tracer.record t in
  (* pid 1 departs donating 4 nodes; pid 2 later adopts them, then pid 1's
     successor departs empty-handed *)
  r ~pid:1 ~time:100 ~ev:RI.Ev_unregister ~a:1 ~b:4;
  r ~pid:2 ~time:150 ~ev:RI.Ev_adopt ~a:4 ~b:1;
  r ~pid:1 ~time:300 ~ev:RI.Ev_unregister ~a:1 ~b:0;
  r ~pid:0 ~time:350 ~ev:RI.Ev_adopt ~a:2 ~b:1;
  let es = Tracer.to_array t in
  checki "unregisters counted" 2 (Metrics.unregisters_total es);
  checki "adoptions counted" 2 (Metrics.adoptions_total es);
  checki "adopted nodes sum the payloads" 6 (Metrics.adopted_nodes_total es)

let test_traced_churn_run () =
  (* a churning simulator run must surface its membership traffic in the
     trace: departures and adoptions appear, and the adopted-node total
     never exceeds what departing workers donated *)
  let tracer = Tracer.create ~n_processes:4 ~capacity:(1 lsl 15) () in
  let setup =
    { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Qs_smr.Scheme.Qsense
         ~n_processes:4
         ~workload:(Qs_workload.Spec.make ~key_range:32 ~update_pct:50)) with
      Sim_exp.duration = 200_000;
      seed = 17;
      churn = Some { Sim_exp.every_ops = 40; downtime = 2_000 };
      sink = Some (Tracer.sink tracer) }
  in
  let r = Sim_exp.run setup in
  checki "sound under churn" 0 r.Sim_exp.violations;
  checkb "workers churned" true (r.Sim_exp.churn_events > 0);
  let es = Tracer.to_array tracer in
  checkb "departures traced" true (Metrics.unregisters_total es > 0);
  checkb "adoptions traced" true (Metrics.adoptions_total es > 0);
  let donated =
    Array.fold_left
      (fun acc (e : Tracer.entry) ->
        if e.Tracer.ev = RI.Ev_unregister && e.Tracer.b > 0 then
          acc + e.Tracer.b
        else acc)
      0 es
  in
  checkb "adopted nodes <= donated nodes" true
    (Metrics.adopted_nodes_total es <= donated)

(* --- exporters ------------------------------------------------------------ *)

let test_chrome_round_trip () =
  let tracer, _ =
    traced_run ~scheme:Qs_smr.Scheme.Cadence ~smr_tweak:frequent_scans ()
  in
  let doc = Export.chrome tracer in
  let j = Json.parse_exn doc in
  let events =
    match Json.member "traceEvents" j with
    | Some a -> Json.to_list a
    | None -> Alcotest.fail "no traceEvents"
  in
  checkb "events present" true (List.length events > 0);
  let opens : (int * string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let str k =
        match Json.member k e with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "missing string field %s" k
      in
      let num k =
        match Json.member k e with
        | Some (Json.Num n) -> n
        | _ -> Alcotest.failf "missing numeric field %s" k
      in
      let name = str "name" and ph = str "ph" in
      let tid = int_of_float (num "tid") in
      checkb "ts >= 0" true (num "ts" >= 0.);
      checki "single pid group" 0 (int_of_float (num "pid"));
      match ph with
      | "B" ->
        checkb "no nested B" false (Hashtbl.mem opens (tid, name));
        Hashtbl.replace opens (tid, name) ()
      | "E" ->
        checkb "E matches an open B" true (Hashtbl.mem opens (tid, name));
        Hashtbl.remove opens (tid, name)
      | "i" | "C" -> ()
      | _ -> Alcotest.failf "unexpected phase %S" ph)
    events;
  checki "every B closed" 0 (Hashtbl.length opens)

let test_chrome_mid_episode () =
  (* A ring that wrapped past the B records: the exporter must emit
     synthetic span starts (at the first retained timestamp, args a=-1)
     rather than dropping the E — the episode existed, the trace merely
     starts inside it. *)
  let tracer = Tracer.create ~n_processes:2 ~capacity:16 () in
  let r = Tracer.record tracer in
  r ~pid:0 ~time:1_000 ~ev:RI.Ev_retire ~a:1 ~b:1;
  r ~pid:0 ~time:1_500 ~ev:RI.Ev_scan_end ~a:3 ~b:7;
  r ~pid:1 ~time:1_600 ~ev:RI.Ev_fallback_exit ~a:900 ~b:(-1);
  let j = Json.parse_exn (Export.chrome tracer) in
  let events =
    match Json.member "traceEvents" j with
    | Some a -> Json.to_list a
    | None -> Alcotest.fail "no traceEvents"
  in
  let field e k =
    match Json.member k e with
    | Some v -> v
    | None -> Alcotest.failf "missing field %s" k
  in
  let span name ph =
    List.filter
      (fun e -> field e "name" = Json.Str name && field e "ph" = Json.Str ph)
      events
  in
  checki "one synthetic scan B" 1 (List.length (span "scan" "B"));
  checki "scan E kept" 1 (List.length (span "scan" "E"));
  checki "one synthetic fallback B" 1 (List.length (span "fallback" "B"));
  checki "fallback E kept" 1 (List.length (span "fallback" "E"));
  let b = List.hd (span "scan" "B") in
  checkb "synthetic B at first retained ts" true
    (field b "ts" = Json.Num 1_000.);
  (match field b "args" with
  | Json.Obj [ ("a", Json.Num a) ] -> checkb "synthetic a=-1" true (a = -1.)
  | _ -> Alcotest.fail "unexpected args on synthetic B");
  (* And the strict-matching invariant still holds for the whole doc. *)
  let opens : (string, int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match (field e "name", field e "ph") with
      | Json.Str n, Json.Str "B" ->
        Hashtbl.replace opens n (1 + Option.value ~default:0 (Hashtbl.find_opt opens n))
      | Json.Str n, Json.Str "E" ->
        let d = Option.value ~default:0 (Hashtbl.find_opt opens n) - 1 in
        checkb "E never unmatched" true (d >= 0);
        Hashtbl.replace opens n d
      | _ -> ())
    events;
  Hashtbl.iter (fun n d -> checki (n ^ " all closed") 0 d) opens

let test_csv_shape () =
  let tracer, _ = traced_run ~scheme:Qs_smr.Scheme.Qsbr () in
  let lines = String.split_on_char '\n' (String.trim (Export.csv tracer)) in
  checki "header + one row per event"
    (Tracer.total tracer + 1)
    (List.length lines);
  check Alcotest.string "header" "time,pid,event,a,b" (List.hd lines)

let suite =
  [ Alcotest.test_case "ring wrap-around" `Quick test_wraparound;
    Alcotest.test_case "merged timeline sorted" `Quick test_merged_timeline_sorted;
    Alcotest.test_case "record is allocation-free" `Quick test_record_allocation_free;
    Alcotest.test_case "seeded trace bit-identical" `Quick test_seeded_trace_bit_identical;
    Alcotest.test_case "cadence age floor T+eps" `Quick test_cadence_age_floor;
    Alcotest.test_case "fallback_since live in fallback" `Quick test_fallback_live;
    Alcotest.test_case "fallback round trip clears since" `Slow test_fallback_round_trip;
    Alcotest.test_case "sink changes no corpus outcome" `Slow test_sink_changes_no_corpus_outcome;
    Alcotest.test_case "metrics: age join" `Quick test_metrics_age_join;
    Alcotest.test_case "metrics: global fallback pairing" `Quick test_metrics_fallback_global_pairing;
    Alcotest.test_case "metrics: limbo series + epoch lags" `Quick test_metrics_limbo_and_lags;
    Alcotest.test_case "metrics: membership counters" `Quick test_metrics_membership_counters;
    Alcotest.test_case "traced churn run surfaces membership" `Slow test_traced_churn_run;
    Alcotest.test_case "chrome export round-trips" `Quick test_chrome_round_trip;
    Alcotest.test_case "chrome tolerates mid-episode trace" `Quick test_chrome_mid_episode;
    Alcotest.test_case "csv export shape" `Quick test_csv_shape
  ]
