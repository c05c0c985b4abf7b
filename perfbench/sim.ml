(* The simulated workload: four virtual worker processes serve bursty
   open-loop traffic through the KV service under QSense, with handler
   churn, while one victim stalls for a window in the middle of the run.

   Every worker serves a fixed number of requests, so runs with the same
   seed are tick-for-tick identical: the percentiles are exact (virtual
   ticks from each request's scheduled arrival, taken from every sample,
   no histogram buckets) and the run is repeated only to time the
   simulator itself. The first run carries the counting sink; the sink is
   schedule-neutral, which the gate checks by demanding identical
   latencies from every repeat. *)

module Ksp = Qs_workload.Kv_spec
module Kv_gen = Qs_workload.Kv_gen
module S = Qs_sim.Scheduler
module SR = Qs_sim.Sim_runtime
module K = Qs_service.Kv.Make (SR)

let n_processes = 4
let victim = n_processes - 1
let n_shards = 4

(* C: above the limbo that normal epoch lag reaches (no fallback without
   the stall in the traces tried), below what the stalled victim pins
   within the stall, so each trace makes complete fallback round trips.
   At C = 48 normal operation already enters fallback, and episodes can
   still be open when the run ends. *)
let switch_threshold = 96

(* Handlers other than pid 0 and the victim leave and rejoin every
   [churn_every] requests, donating their limbo to the orphan pool, but
   only outside the stall and the [churn_quiet] ticks after it: churn
   while the victim is stalled (and QSense is in fallback) can livelock
   Skiplist.delete; see NOTES.md. *)
let churn_every = 1_000
let churn_downtime = 2_000
let churn_quiet = 2_000_000

(* Requests per worker: at the spec's mean gap (~1,812 ticks) a run spans
   about 21.7M ticks. The victim freezes from tick 6M for 4M ticks. *)
let requests_per_worker = 12_000
let stall_at = 6_000_000
let stall_ticks = 4_000_000

let may_churn ~now =
  now < stall_at || now >= stall_at + stall_ticks + churn_quiet

type run = {
  latencies : int array;  (* sorted, every request of the survivors *)
  service_ticks : int;  (* ticks spent serving, excluding queueing *)
  requests : int;
  failures : int;  (* dead workers + arena exhaustion *)
  violations : int;
  leak : int;  (* outstanding nodes unaccounted for after the flush *)
  rooster_fires : int;
  outstanding_peak : int;
  allocations : int;
  fresh_nodes : int;
  recorded : int;  (* samples the latency recorder saw *)
  gen_s : float;
  setup_s : float;  (* trace generation, service creation, prefill *)
  marks : int array;
      (* wall clock at the start and after every [chunk]-th completed
         request: identical simulated work between the same two marks of
         every repeat *)
}

let chunk = 1_000

let run_once (w : Workloads.t) ~seed ~sink =
  let t_setup = Est.now_ns () in
  let gen =
    Kv_gen.make w.spec ~n_processes ~ops_per_process:requests_per_worker ~seed
  in
  let gen_s = float_of_int (Est.now_ns () - t_setup) /. 1e9 in
  let sched =
    S.create
      { (S.default_config ~n_cores:n_processes ~seed) with
        rooster_interval = Some Qs_harness.Sim_exp.default_rooster_interval;
        rooster_oversleep = Qs_harness.Sim_exp.default_epsilon / 2 }
  in
  let cfg =
    { Qs_ds.Set_intf.scheme = Qs_smr.Scheme.Qsense;
      smr =
        { (Qs_harness.Sim_exp.base_smr_config ~n_processes) with
          switch_threshold };
      capacity = None;
      debug_checks = true }
  in
  let service = K.create ~n_shards cfg in
  let ctxs = Array.init n_processes (fun pid -> K.register service ~pid) in
  S.exec sched ~pid:0 (fun () ->
      let keys = Array.of_list (Ksp.initial_keys w.spec) in
      Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:(seed + 1)) keys;
      Array.iter (fun k -> ignore (K.put ctxs.(0) k)) keys);
  S.inject sched [ S.Stall_at { pid = victim; at = stall_at; ticks = stall_ticks } ];
  S.reset_clocks sched;
  S.set_sink sched sink;
  let setup_s = float_of_int (Est.now_ns () - t_setup) /. 1e9 in
  let recorder =
    Qs_obs.Latency.recorder ~n_processes ~n_kinds:Ksp.n_kinds ()
  in
  let lat = Array.init n_processes (fun _ -> Array.make requests_per_worker 0) in
  let service_ticks = Array.make n_processes 0 in
  let exhausted = ref 0 in
  let outstanding_peak = ref (K.outstanding service) in
  let alloc0 = K.report service in
  let marks = Array.make ((n_processes * requests_per_worker / chunk) + 1) 0 in
  let completed = ref 0 in
  for pid = 0 to n_processes - 1 do
    S.spawn sched ~pid (fun () ->
        let ctx = ref ctxs.(pid) in
        let i = ref 0 in
        while !i < requests_per_worker do
          if
            pid > 0 && pid <> victim && !i > 0 && !i mod churn_every = 0
            && may_churn ~now:(S.clock_of sched ~pid)
          then begin
            K.unregister !ctx;
            SR.sleep_until (SR.now () + churn_downtime);
            ctx := K.register service ~pid;
            ctxs.(pid) <- !ctx
          end;
          let due = Kv_gen.arrival gen ~pid ~i:!i in
          (* open loop: an early worker idles until the request is due; a
             late one starts at once and the backlog is queueing latency *)
          if SR.now () < due then SR.sleep_until due;
          let start = S.clock_of sched ~pid in
          let op = Kv_gen.op gen ~pid ~i:!i in
          (try
             match op with
             | Ksp.Get k -> ignore (K.get !ctx k)
             | Ksp.Put k -> ignore (K.put !ctx k)
             | Ksp.Del k -> ignore (K.del !ctx k)
             | Ksp.Scan (lo, hi) -> ignore (K.scan !ctx ~lo ~hi)
           with Qs_arena.Arena.Exhausted -> incr exhausted);
          (* meta-level clock reads: recording cannot move the schedule *)
          let t1 = S.clock_of sched ~pid in
          lat.(pid).(!i) <- t1 - due;
          service_ticks.(pid) <- service_ticks.(pid) + (t1 - start);
          Qs_obs.Latency.observe recorder ~pid ~kind:(Ksp.kind_index op)
            ~start:due ~dur:(t1 - due);
          outstanding_peak := max !outstanding_peak (K.outstanding service);
          incr completed;
          if !completed mod chunk = 0 then
            marks.(!completed / chunk) <- Est.now_ns ();
          incr i
        done)
  done;
  marks.(0) <- Est.now_ns ();
  S.run_all sched;
  S.set_sink sched None;
  let alloc1 = K.report service in
  let dead = List.length (S.failures sched) in
  let leak =
    S.exec sched ~pid:0 (fun () ->
        Array.iter K.flush ctxs;
        K.outstanding service - K.live_nodes ctxs.(0))
  in
  let latencies =
    Array.concat (List.filteri (fun pid _ -> pid <> victim) (Array.to_list lat))
  in
  Array.sort compare latencies;
  { latencies;
    service_ticks = Array.fold_left ( + ) 0 service_ticks;
    requests = n_processes * requests_per_worker;
    failures = dead + !exhausted;
    violations = K.violations service;
    leak;
    rooster_fires = S.rooster_fires sched;
    outstanding_peak = !outstanding_peak;
    allocations = alloc1.allocations - alloc0.allocations;
    fresh_nodes = alloc1.fresh_nodes - alloc0.fresh_nodes;
    recorded = Qs_obs.Latency.count (Qs_obs.Latency.merged recorder);
    gen_s;
    setup_s;
    marks }

(* Each invocation simulates [n_seeds] traces drawn from the run's seed
   (more traces, less of a seed's luck in every figure) and repeats each
   simulation [repeats] times. The first repeat of a trace carries the
   counting sink (when traced, every other repeat does, to price it); the
   sink-free repeats time the simulator. *)
let n_seeds = 6

let repeats ~seconds = max 3 (2 * seconds / n_seeds)

type trace_runs = {
  first : run;  (* repeat 0, with the sink *)
  sink : Counting_sink.t;
  plain : run list;  (* sink-free repeats *)
  sinked : run list;  (* repeats with a sink *)
}

(* Repeats go round-robin over the traces, so every trace's repeats are
   spread over the whole invocation rather than bunched into one phase of
   the host's load. *)
let simulate w ~seeds ~seconds ~traced =
  let with_sink k = k = 0 || (traced && k land 1 = 0) in
  let n = repeats ~seconds in
  let sinks = List.map (fun _ -> Counting_sink.create ~n_processes) seeds in
  let runs = Array.make_matrix (List.length seeds) n None in
  for k = 0 to n - 1 do
    List.iteri
      (fun j seed ->
        Gc.full_major ();
        let s =
          if k = 0 then List.nth sinks j else Counting_sink.create ~n_processes
        in
        let sink = if with_sink k then Some (Counting_sink.sink s) else None in
        runs.(j).(k) <- Some (with_sink k, run_once w ~seed ~sink))
      seeds
  done;
  List.mapi
    (fun j sink ->
      let runs = List.map Option.get (Array.to_list runs.(j)) in
      { first = snd (List.hd runs);
        sink;
        plain = List.filter_map (fun (s, r) -> if s then None else Some r) runs;
        sinked = List.filter_map (fun (s, r) -> if s then Some r else None) runs })
    sinks

let composite runs = Est.composite_ns (List.map (fun r -> r.marks) runs)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let run (w : Workloads.t) ~seed ~seconds ~traced =
  let traces =
    simulate w ~seconds ~traced
      ~seeds:(List.init n_seeds (fun j -> (seed * n_seeds) + j))
  in
  let firsts = List.map (fun t -> t.first) traces in
  let requests = sum (fun r -> r.requests) firsts in
  let plain_ns = sum (fun t -> composite t.plain) traces in
  let sink_ns = sum (fun t -> composite t.sinked) traces in
  let count ev = sum (fun t -> Counting_sink.count t.sink ev) traces in
  let entries = count Qs_intf.Runtime_intf.Ev_fallback_enter
  and exits = count Qs_intf.Runtime_intf.Ev_fallback_exit in
  let gate t =
    let r = t.first in
    let identical =
      List.for_all (fun x -> x.latencies = r.latencies) (t.plain @ t.sinked)
    in
    let e = Counting_sink.count t.sink Qs_intf.Runtime_intf.Ev_fallback_enter
    and x = Counting_sink.count t.sink Qs_intf.Runtime_intf.Ev_fallback_exit in
    r.failures + r.violations + abs r.leak + (r.requests - r.recorded)
    + (if identical then 0 else 1)
    + (if e = x && e >= 1 then 0 else 1)
  in
  let failed = sum gate traces in
  let pooled = Array.concat (List.map (fun r -> r.latencies) firsts) in
  Array.sort compare pooled;
  let pcts =
    List.map
      (fun (name, q) -> (name, Est.percentile pooled q))
      [ ("p50", 50.); ("p99", 99.); ("p999", 99.9) ]
  in
  let mops = float_of_int requests /. (float_of_int plain_ns /. 1e3) in
  Report.line "  throughput: %.4f simulated Mops/s over %d requests (%d traces; \
               per %d-request slice, the fastest of %d sink-free repeats)"
    mops requests n_seeds chunk
    (List.length (List.hd traces).plain);
  List.iter
    (fun (name, (q : Est.pct)) ->
      Report.line "  %s_ticks = %d ticks over %d survivor samples, %d beyond%s"
        name q.value q.samples q.beyond
        (if Est.tail_ok q then "" else "  TOO FEW SAMPLES"))
    pcts;
  Report.line "  gate: %d violation(s), leak %d, %d dead/exhausted, \
               fallback %d enter / %d exit, %d failed check(s)"
    (sum (fun r -> r.violations) firsts)
    (sum (fun r -> abs r.leak) firsts)
    (sum (fun r -> r.failures) firsts)
    entries exits failed;
  let median_of f =
    Est.median_float (Array.of_list (List.map f firsts))
  in
  let values =
    if not traced then
      [ ("throughput_mops", mops);
        ( "retired_peak",
          Est.mean_float
            (Array.of_list
               (List.map (fun t -> float_of_int t.sink.live_peak) traces)) );
        ( "heap_peak_mb",
          float_of_int
            ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1e6 );
        ( "setup_s",
          Est.median_float
            (Array.of_list
               (List.concat_map
                  (fun t -> List.map (fun r -> r.setup_s) (t.first :: t.plain @ t.sinked))
                  traces)) ) ]
      @ List.map (fun (n, (q : Est.pct)) -> (n, float_of_int q.value)) pcts
    else
      let per_1k c = Layers.per_1k c ~requests in
      let sink_sum f = sum (fun t -> f t.sink) traces in
      let scans = count Qs_intf.Runtime_intf.Ev_scan_end in
      let open Qs_intf.Runtime_intf in
      let allocs = sum (fun r -> r.allocations) firsts in
      [ ("workload.gen_s", median_of (fun r -> r.gen_s));
        ("workload.prefill_s", median_of (fun r -> r.setup_s -. r.gen_s));
        ("smr.retires", per_1k (count Ev_retire));
        ("smr.frees", per_1k (count Ev_free));
        ("smr.scans", per_1k scans);
        ("smr.epoch_advances", per_1k (count Ev_epoch_advance));
        ("smr.bag_seals", per_1k (count Ev_bag_seal));
        ("smr.adopted_nodes", per_1k (sink_sum (fun s -> s.adopted_nodes)));
        ( "smr.frees_per_scan",
          if scans = 0 then 0.
          else float_of_int (sink_sum (fun s -> s.scan_freed)) /. float_of_int scans );
        ( "smr.empty_scans_pct",
          if scans = 0 then 0.
          else 100. *. float_of_int (sink_sum (fun s -> s.empty_scans)) /. float_of_int scans );
        ("smr.fallback_entries", float_of_int entries);
        ("smr.fallback_exits", float_of_int exits);
        ("smr.fallback_dwell_ticks", float_of_int (sink_sum (fun s -> s.fallback_dwell)));
        ("smr.scan_busy_ticks", float_of_int (sink_sum (fun s -> s.scan_busy)));
        ("arena.allocs_per_req", float_of_int allocs /. float_of_int requests);
        ( "arena.reuse_pct",
          if allocs = 0 then 0.
          else
            100. *. float_of_int (allocs - sum (fun r -> r.fresh_nodes) firsts)
            /. float_of_int allocs );
        ("arena.outstanding_peak", median_of (fun r -> float_of_int r.outstanding_peak));
        ( "sim.ticks_per_req",
          float_of_int (sum (fun r -> r.service_ticks) firsts) /. float_of_int requests );
        ("sim.wall_ns_per_req", float_of_int plain_ns /. float_of_int requests);
        ("sim.rooster_fires", float_of_int (sum (fun r -> r.rooster_fires) firsts));
        ("obs.record_ns", Layers.obs_record_ns ());
        ( "trace.overhead_pct",
          100. *. ((float_of_int sink_ns /. float_of_int plain_ns) -. 1.) ) ]
  in
  { Report.correct = failed = 0 && List.for_all (fun (_, q) -> Est.tail_ok q) pcts;
    attempted = requests;
    failed;
    values }
