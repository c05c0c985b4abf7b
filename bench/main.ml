(* Bechamel micro-benchmarks on the REAL runtime (OCaml 5 domains, real x86
   fences), one group per reproduced table/figure, plus quick simulator
   renditions of the paper's tables at the end.

   - "primitives":   the cost model the paper's argument rests on — a plain
                     store (Cadence's HP publication) vs an SC store vs a
                     full fence (classic HP's publication) vs CAS. The
                     plain store is an [int] store, exactly what a publish
                     does: hazard-pointer slots hold node ids, so a publish
                     pays no GC write barrier ([caml_modify]).
   - "fig3-*":       per-operation cost of the Figure 3 configuration
                     (linked list, 10% updates) under each scheme.
   - "fig5top-*":    per-operation cost of the Figure 5 top-row
                     configurations (50% updates) for list / skiplist / bst
                     / hashtable under each scheme.
   - "overheads":    derived §7.3-style table (overhead vs leaky, speedup
                     vs HP) computed from the measured ns/op.

   Single-domain measurements: Bechamel times closures on one core; the
   multi-core scalability curves come from the simulator (bin/repro.exe).
   On x86 the fence in [assign_hp] costs the same whether or not other
   cores run, so the per-op overhead ratios are the paper's. *)

open Bechamel
open Toolkit
module R = Qs_real.Real_runtime

(* Every generated artifact (JSON report, Perfetto traces, CSVs) lands in
   the gitignored [out/] directory instead of littering the repo root. *)
let out_path name =
  let dir = "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir name

(* --- primitives ---------------------------------------------------------- *)

let plain_cell = R.plain 1 0
let atomic_cell = R.atomic 0

let primitives =
  [ Test.make ~name:"plain-write (cadence HP publish)"
      (Staged.stage (fun () -> R.write plain_cell 0 42));
    Test.make ~name:"plain-read" (Staged.stage (fun () -> ignore (R.read plain_cell 0)));
    Test.make ~name:"atomic-get" (Staged.stage (fun () -> ignore (R.get atomic_cell)));
    Test.make ~name:"atomic-set" (Staged.stage (fun () -> R.set atomic_cell 42));
    Test.make ~name:"fence (classic HP publish)" (Staged.stage (fun () -> R.fence ()));
    Test.make ~name:"cas"
      (Staged.stage (fun () ->
           let v = R.get atomic_cell in
           ignore (R.cas atomic_cell v v)))
  ]

(* --- per-operation data-structure benchmarks ----------------------------- *)

let schemes =
  [ Qs_smr.Scheme.None_; Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Qsense;
    Qs_smr.Scheme.Cadence; Qs_smr.Scheme.Hp ]

let set_cfg scheme =
  let base = Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme in
  { base with
    smr =
      { base.smr with
        quiescence_threshold = 32;
        scan_threshold = 32;
        (* ns on the real clock: age out quickly so scans actually free *)
        rooster_interval = 50_000;
        epsilon = 10_000 } }

module Bench_set (C : Qs_harness.Cset.S) (Info : sig
  val name : string
  val range : int
end) =
struct
  let make ~update_pct scheme =
    let set = C.create (set_cfg scheme) in
    let ctx = C.register set ~pid:0 in
    let keys = Array.init (Info.range / 2) (fun i -> 2 * i) in
    Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:7) keys;
    Array.iter (fun k -> ignore (C.insert ctx k)) keys;
    let prng = Qs_util.Prng.create ~seed:42 in
    Test.make
      ~name:(Printf.sprintf "%s/%s" Info.name (Qs_smr.Scheme.to_string scheme))
      (Staged.stage (fun () ->
           let key = Qs_util.Prng.int prng Info.range in
           let pct = Qs_util.Prng.percent prng in
           if pct < update_pct / 2 then ignore (C.insert ctx key)
           else if pct < update_pct then ignore (C.delete ctx key)
           else ignore (C.search ctx key)))

  let group ~group_name ~update_pct =
    Test.make_grouped ~name:group_name (List.map (make ~update_pct) schemes)
end

module List_b =
  Bench_set (Qs_ds.Linked_list.Make (R)) (struct
    let name = "list"
    let range = 512
  end)

module Skip_b =
  Bench_set (Qs_ds.Skiplist.Make (R)) (struct
    let name = "skiplist"
    let range = 4_096
  end)

module Bst_b =
  Bench_set (Qs_ds.Bst.Make (R)) (struct
    let name = "bst"
    let range = 16_384
  end)

module Hash_b =
  Bench_set (Qs_ds.Hashtable.Make (R)) (struct
    let name = "hashtable"
    let range = 4_096
  end)

(* Stack and queue: the methodology examples, one push/pop (enqueue/dequeue)
   pair per iteration. *)

module Stack_b = struct
  module S = Qs_ds.Treiber_stack.Make (R)

  let make scheme =
    let st = S.create (set_cfg scheme) in
    let ctx = S.register st ~pid:0 in
    for i = 1 to 128 do
      S.push ctx i
    done;
    Test.make
      ~name:(Printf.sprintf "stack/%s" (Qs_smr.Scheme.to_string scheme))
      (Staged.stage (fun () ->
           S.push ctx 1;
           ignore (S.pop ctx)))

  let group () = Test.make_grouped ~name:"stack" (List.map make schemes)
end

module Queue_b = struct
  module Q = Qs_ds.Msqueue.Make (R)

  let make scheme =
    let q = Q.create (set_cfg scheme) in
    let ctx = Q.register q ~pid:0 in
    for i = 1 to 128 do
      Q.enqueue ctx i
    done;
    Test.make
      ~name:(Printf.sprintf "queue/%s" (Qs_smr.Scheme.to_string scheme))
      (Staged.stage (fun () ->
           Q.enqueue ctx 1;
           ignore (Q.dequeue ctx)))

  let group () = Test.make_grouped ~name:"queue" (List.map make schemes)
end

(* --- measurement machinery ----------------------------------------------- *)

let benchmark tests =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  Benchmark.all cfg Instance.[ monotonic_clock ] tests

let analyze raw =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let ns_per_run results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols -> (
    match Analyze.OLS.estimates ols with
    | Some [ e ] -> e
    | _ -> nan)

let run_group title tests =
  Printf.printf "== %s ==\n%!" title;
  let results = analyze (benchmark tests) in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  let tbl = Qs_util.Table.create [ "benchmark"; "ns/op" ] in
  List.iter
    (fun name ->
      Qs_util.Table.add_row tbl [ name; Printf.sprintf "%.1f" (ns_per_run results name) ])
    (List.sort compare names);
  Qs_util.Table.print tbl;
  print_newline ();
  results

let overhead_table per_ds_results =
  let tbl =
    Qs_util.Table.create
      [ "scheme"; "list ns/op"; "skiplist ns/op"; "bst ns/op"; "hashtable ns/op";
        "avg overhead vs none (%)"; "speedup vs hp" ]
  in
  let dss = [ "list"; "skiplist"; "bst"; "hashtable" ] in
  let suffix_of ds scheme =
    Printf.sprintf "/%s/%s" ds (Qs_smr.Scheme.to_string scheme)
  in
  let cost ds scheme =
    let results = List.assoc ds per_ds_results in
    let suffix = suffix_of ds scheme in
    Hashtbl.fold
      (fun name _ acc ->
        if String.ends_with ~suffix name then ns_per_run results name else acc)
      results nan
  in
  (* Baselines are computed once, outside the per-scheme loop. *)
  let none_costs = List.map (fun ds -> cost ds Qs_smr.Scheme.None_) dss in
  let hp_costs = List.map (fun ds -> cost ds Qs_smr.Scheme.Hp) dss in
  List.iter
    (fun scheme ->
      let costs = List.map (fun ds -> cost ds scheme) dss in
      let over =
        (* throughput overhead = 1 - none/cost *)
        List.map2 (fun none_c c -> 100. *. (1. -. (none_c /. c))) none_costs costs
      in
      let speedups = List.map2 (fun hp_c c -> hp_c /. c) hp_costs costs in
      Qs_util.Table.add_row tbl
        (Qs_smr.Scheme.to_string scheme
        :: (List.map (Printf.sprintf "%.0f") costs
           @ [ Printf.sprintf "%.1f"
                 (Qs_util.Stats.mean (Array.of_list over));
               Printf.sprintf "%.2fx"
                 (Qs_util.Stats.mean (Array.of_list speedups))
             ])))
    schemes;
  Qs_util.Table.print tbl;
  print_newline ()

(* --- retire/scan microbenchmarks ----------------------------------------- *)

(* Retire + scan cost of the production Cadence path (timestamped limbo
   bags of 64 nodes, hash-set hazard-pointer snapshot). Two scenarios per
   limbo size L:

   - "keep":  nothing is old enough, so scans walk the limbo list while
     keeping every node — the steady-state cost of retire + periodic scans
     (~8 scans per L retires).
   - "drain": everything is old enough and unprotected, so the scan that
     fires after L retires checks all L nodes against the N*K hazard
     pointers and frees them — the membership-heavy path.

   Growing state rules out bechamel's closure timing, so rounds are timed
   by hand on the monotonic clock and the best round is reported. *)

module Micro = struct
  type fake = { id : int; mutable freed : int }

  module FN = struct
    type t = fake

    let id n = n.id
  end

  let n_processes = 8
  let hp_per_process = 8

  let micro_cfg ~scan_threshold ~rooster_interval ~epsilon =
    { (Qs_smr.Smr_intf.default_config ~n_processes ~hp_per_process) with
      scan_threshold;
      rooster_interval;
      epsilon }

  module Cad = Qs_smr.Cadence.Make (R) (FN)

  let dummy = { id = -1; freed = 0 }

  (* Node pool reused across rounds; protected nodes live outside it. *)
  let pool l = Array.init l (fun i -> { id = i; freed = 0 })

  let protected_nodes =
    Array.init (n_processes * hp_per_process) (fun i ->
        { id = 1_000_000 + i; freed = 0 })

  let fill_hps assign =
    for pid = 0 to n_processes - 1 do
      for slot = 0 to hp_per_process - 1 do
        assign ~pid ~slot protected_nodes.((pid * hp_per_process) + slot)
      done
    done

  type scenario = Keep | Drain

  let scenario_name = function Keep -> "keep" | Drain -> "drain"

  let cfg_of_scenario scenario ~limbo =
    match scenario with
    | Keep ->
      (* Nothing ever ages out: scans keep the whole limbo list. ~8 scans
         over the L retires of a round. *)
      micro_cfg ~scan_threshold:(max 1 (limbo / 8)) ~rooster_interval:max_int
        ~epsilon:0
    | Drain ->
      (* Everything is immediately old: the scan after the L-th retire
         checks every node against the N*K hazard pointers and frees it. *)
      micro_cfg ~scan_threshold:limbo ~rooster_interval:0 ~epsilon:0

  (* Bulk free, as the data structures wire it ([Arena.free_many]): one
     callback per freed bag. *)
  let free_many data count =
    for i = 0 to count - 1 do
      let n = data.(i) in
      n.freed <- n.freed + 1
    done

  (* Returns best-round ns per retire (scan cost amortized in). *)
  let run_cadence scenario ~limbo ~rounds =
    let cfg = cfg_of_scenario scenario ~limbo in
    let t = Cad.create cfg ~dummy ~free_bulk:free_many in
    let handles = Array.init n_processes (fun pid -> Cad.register t ~pid) in
    fill_hps (fun ~pid ~slot n -> Cad.assign_hp handles.(pid) ~slot n);
    let nodes = pool limbo in
    let h = handles.(0) in
    let best = ref max_float in
    for _round = 1 to rounds do
      let t0 = R.now () in
      for i = 0 to limbo - 1 do
        Cad.retire h nodes.(i)
      done;
      let dt = float_of_int (R.now () - t0) in
      if dt < !best then best := dt;
      (* Keep rounds start from an empty limbo; Drain rounds already do. *)
      Cad.flush h
    done;
    !best /. float_of_int limbo

  (* Steady-state allocation on the bag retire path, measured exactly like
     the test-suite pins: warm-up retires grow the block cache, a flush
     restocks it, and the measured window's retires (every 64th sealing a
     bag and drawing a fresh block) must then allocate exactly nothing. *)
  let bag_retire_alloc_words ~limbo =
    let cfg =
      micro_cfg ~scan_threshold:max_int ~rooster_interval:max_int ~epsilon:0
    in
    let t = Cad.create cfg ~dummy ~free_bulk:free_many in
    let h = Cad.register t ~pid:0 in
    let node = { id = 0; freed = 0 } in
    for _i = 1 to limbo do
      Cad.retire h node
    done;
    Cad.flush h;
    Gc.minor ();
    let before = Gc.minor_words () in
    for _i = 1 to limbo do
      Cad.retire h node
    done;
    let words = Gc.minor_words () -. before in
    Cad.flush h;
    words

  type result = { scenario : scenario; limbo : int; bag_ns : float }

  let run ~sizes ~target_ops =
    List.concat_map
      (fun limbo ->
        let rounds = max 3 (target_ops / limbo) in
        List.map
          (fun scenario ->
            { scenario; limbo; bag_ns = run_cadence scenario ~limbo ~rounds })
          [ Keep; Drain ])
      sizes

  let print_table results =
    let tbl = Qs_util.Table.create [ "scenario"; "limbo"; "ns/retire" ] in
    List.iter
      (fun r ->
        Qs_util.Table.add_row tbl
          [ scenario_name r.scenario;
            string_of_int r.limbo;
            Printf.sprintf "%.1f" r.bag_ns ])
      results;
    Qs_util.Table.print tbl;
    print_newline ()
end

(* --- end-to-end multicore sweep ------------------------------------------ *)

(* The whole stack at once, on real OCaml 5 domains via {!Qs_harness.Real_exp}:
   {qsbr, hp, cadence, qsense} × {list, hashtable} × domain counts. Where the
   bechamel groups above time single operations on one core, this measures
   aggregate throughput with reclamation actually feeding the allocator —
   [reuse_ratio] close to 1 is the proof that retire → scan → free → alloc
   recycles nodes at steady state, and [retired_peak] bounds the limbo
   memory. On machines with fewer cores than domains the domains timeshare;
   the numbers remain a valid safety/recycling check (violations = 0,
   failed = false) even when the scalability shape flattens. *)
module E2e = struct
  type result = {
    scheme : Qs_smr.Scheme.kind;
    ds : Qs_harness.Cset.kind;
    n_domains : int;
    throughput_mops : float;
    retired_peak : int;
    reuse_ratio : float;
    violations : int;
    failed : bool;
    churn_events : int;
  }

  let schemes =
    [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence;
      Qs_smr.Scheme.Qsense ]

  (* The rival-scheme zoo (cross-paper comparison, DESIGN.md §13): same
     matrix, reported in the JSON's separate "rivals" section so the CI
     guard over the incumbents' numbers is not disturbed. *)
  let rival_schemes = [ Qs_smr.Scheme.Debra_plus; Qs_smr.Scheme.Hyaline ]

  let structures = [ Qs_harness.Cset.List; Qs_harness.Cset.Hashtable ]

  let domain_counts ~quick =
    List.sort_uniq compare
      (if quick then [ 1; 2 ]
       else [ 1; 2; 4; Domain.recommended_domain_count () ])

  let key_range = function
    | Qs_harness.Cset.List -> 512
    | _ -> 4_096

  let run_one ~quick ~churn ~ds ~scheme ~n_domains =
    let workload =
      Qs_workload.Spec.make ~key_range:(key_range ds) ~update_pct:20
    in
    let setup =
      { (Qs_harness.Real_exp.default_setup ~ds ~scheme ~n_domains ~workload) with
        duration_ms = (if quick then 50 else 250);
        (* --churn: three worker generations per pid slot, each handing its
           limbo lists to the orphan pool for the survivors to adopt *)
        churn =
          (if churn then
             Some
               { Qs_harness.Real_exp.generations = 3;
                 downtime_ms = (if quick then 2 else 10) }
           else None);
        seed = 42 }
    in
    let r = Qs_harness.Real_exp.run setup in
    let reuse_ratio =
      let a = r.report.allocations in
      if a = 0 then 0.
      else float_of_int (a - r.report.fresh_nodes) /. float_of_int a
    in
    { scheme;
      ds;
      n_domains;
      throughput_mops = r.throughput_mops;
      retired_peak = r.report.smr.retired_peak;
      reuse_ratio;
      violations = r.violations;
      failed = r.failed;
      churn_events = r.churn_events }

  let run_matrix ~quick ~churn schemes =
    List.concat_map
      (fun ds ->
        List.concat_map
          (fun scheme ->
            List.map
              (fun n_domains ->
                let r = run_one ~quick ~churn ~ds ~scheme ~n_domains in
                Printf.printf "  %-9s %-9s %d domains: %6.2f Mops/s%s\n%!"
                  (Qs_harness.Cset.kind_to_string ds)
                  (Qs_smr.Scheme.to_string scheme)
                  n_domains r.throughput_mops
                  (if churn then
                     Printf.sprintf " (%d churn events)" r.churn_events
                   else "");
                r)
              (domain_counts ~quick))
          schemes)
      structures

  let run ~quick ~churn = run_matrix ~quick ~churn schemes
  let run_rivals ~quick ~churn = run_matrix ~quick ~churn rival_schemes

  let print_table results =
    let tbl =
      Qs_util.Table.create
        [ "structure"; "scheme"; "domains"; "Mops/s"; "retired peak";
          "reuse ratio"; "violations"; "failed"; "churn" ]
    in
    List.iter
      (fun r ->
        Qs_util.Table.add_row tbl
          [ Qs_harness.Cset.kind_to_string r.ds;
            Qs_smr.Scheme.to_string r.scheme;
            string_of_int r.n_domains;
            Printf.sprintf "%.2f" r.throughput_mops;
            string_of_int r.retired_peak;
            Printf.sprintf "%.3f" r.reuse_ratio;
            string_of_int r.violations;
            string_of_bool r.failed;
            string_of_int r.churn_events ])
      results;
    Qs_util.Table.print tbl;
    print_newline ()
end

(* Real-domain Mops/s of the same cadence/list run bare and with one
   instrument installed ([instrument] edits the setup): the overhead A/B
   each observatory's zero-cost claim rests on. *)
let real_ab ~quick instrument =
  let base =
    { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
         ~scheme:Qs_smr.Scheme.Cadence ~n_domains:2
         ~workload:(Qs_workload.Spec.make ~key_range:512 ~update_pct:50))
      with
      duration_ms = (if quick then 50 else 200);
      seed = 42 }
  in
  let off = Qs_harness.Real_exp.run base in
  let on = Qs_harness.Real_exp.run (instrument base) in
  (off.Qs_harness.Real_exp.throughput_mops, on.Qs_harness.Real_exp.throughput_mops)

(* --- reclamation observatory (--trace) ------------------------------------ *)

(* The tracing subsystem exercised end to end (see DESIGN.md §9 and
   EXPERIMENTS.md, "Reclamation observatory"):

   - a traced Cadence run on the simulator, rendering the age-at-free
     histogram whose minimum exhibits the paper's [T + epsilon] floor, plus
     per-process limbo-depth sparklines — and exporting the trace as Chrome
     trace-event JSON (Perfetto) and CSV;
   - a traced QSense run with a stalled victim, rendering the fallback
     round-trip (enter → dwell → exit) as a timeline;
   - the overhead A/B the zero-cost claim rests on: minor words allocated
     per recorded event (disabled and enabled tracer — both must be 0) and
     real-runtime throughput with the sink off vs on. The off/on numbers
     land in the JSON report's "trace" section so CI can watch them. *)
module Observatory = struct
  open Qs_intf.Runtime_intf

  let t_plus_eps =
    Qs_harness.Sim_exp.default_rooster_interval
    + Qs_harness.Sim_exp.default_epsilon

  let traced_sim ~ds ~scheme ~n_processes ~duration ~delays ~key_range
      ~smr_tweak () =
    let tracer =
      Qs_obs.Tracer.create ~n_processes ~capacity:(1 lsl 16) ()
    in
    let workload = Qs_workload.Spec.make ~key_range ~update_pct:50 in
    let setup =
      { (Qs_harness.Sim_exp.default_setup ~ds ~scheme ~n_processes ~workload) with
        duration;
        seed = 11;
        delays;
        smr_tweak;
        sink = Some (Qs_obs.Tracer.sink tracer) }
    in
    let r = Qs_harness.Sim_exp.run setup in
    (tracer, r)

  (* Compress a [(time, depth)] series to [n] evenly spaced depth samples. *)
  let resample series n =
    let len = Array.length series in
    if len = 0 then [||]
    else
      Array.init n (fun i ->
          let j = i * (len - 1) / max 1 (n - 1) in
          float_of_int (snd series.(j)))

  let cadence_age () =
    Printf.printf
      "-- cadence: age at free (sim; floor T+eps = %d ticks) --\n%!" t_plus_eps;
    let tracer, r =
      traced_sim ~ds:Qs_harness.Cset.List ~scheme:Qs_smr.Scheme.Cadence
        ~n_processes:4 ~duration:800_000 ~delays:None ~key_range:64
        (* scans must actually fire within the run for frees to appear:
           scan every 16 retires *)
        ~smr_tweak:(fun c -> { c with Qs_smr.Smr_intf.scan_threshold = 16 })
        ()
    in
    let entries = Qs_obs.Tracer.to_array tracer in
    let ages = Qs_obs.Metrics.ages_at_free entries in
    Printf.printf "events retained %d (dropped %d), retires %d, frees %d\n"
      (Qs_obs.Tracer.total tracer)
      (Qs_obs.Tracer.total_dropped tracer)
      (Qs_obs.Metrics.retires_total entries)
      (Qs_obs.Metrics.frees_total entries);
    if Array.length ages = 0 then
      Printf.printf "no frees recorded (run too short?)\n"
    else begin
      let min_age = Array.fold_left min max_int ages in
      Printf.printf "min age at free: %d ticks vs floor %d  [%s]\n" min_age
        t_plus_eps
        (if min_age >= t_plus_eps then "ok" else "VIOLATED");
      match Qs_obs.Metrics.age_histogram entries with
      | None -> ()
      | Some h -> print_string (Qs_obs.Latency.to_ascii h ~width:40)
    end;
    for pid = 0 to 3 do
      let series = Qs_obs.Metrics.limbo_series entries ~pid in
      Printf.printf "limbo depth p%d: %s (max %d)\n" pid
        (Qs_util.Table.sparkline (resample series 48))
        (Qs_obs.Metrics.max_limbo entries ~pid)
    done;
    ignore r.Qs_harness.Sim_exp.ops_total;
    Qs_obs.Export.save_chrome tracer (out_path "cadence_age.trace.json");
    Qs_obs.Export.save_csv tracer (out_path "cadence_age.csv");
    Printf.printf "wrote out/cadence_age.trace.json, out/cadence_age.csv\n\n%!"

  let qsense_fallback () =
    Printf.printf
      "-- qsense: fallback round-trip under a stalled victim (sim) --\n%!";
    let tracer, r =
      traced_sim ~ds:Qs_harness.Cset.List ~scheme:Qs_smr.Scheme.Qsense
        ~n_processes:4 ~duration:2_500_000
        ~delays:
          (Some
             { Qs_harness.Sim_exp.victim = 3;
               windows = [ (100_000, 1_600_000) ] })
        ~key_range:32
        (* C = 48: the explorer's fallback round-trip configuration — small
           enough that the stalled victim's pinned epoch pushes the limbo
           over it well inside the window *)
        ~smr_tweak:(fun c -> { c with Qs_smr.Smr_intf.switch_threshold = 48 })
        ()
    in
    let entries = Qs_obs.Tracer.to_array tracer in
    let episodes = Qs_obs.Metrics.fallback_episodes entries in
    Printf.printf "fallback/fast switches: %d/%d; episodes seen in trace: %d\n"
      r.Qs_harness.Sim_exp.report.smr.fallback_entries
      r.Qs_harness.Sim_exp.report.smr.fallback_exits
      (List.length episodes);
    List.iter
      (fun (e : Qs_obs.Metrics.episode) ->
        match e.exit_time, e.dwell with
        | Some t1, Some d ->
          Printf.printf
            "  p%d: enter @%d (limbo %d) -> exit @%d (dwell %d ticks)\n"
            e.ep_pid e.enter_time e.limbo_at_enter t1 d
        | _ ->
          Printf.printf "  p%d: enter @%d (limbo %d) -> still in fallback\n"
            e.ep_pid e.enter_time e.limbo_at_enter)
      episodes;
    let lags = Qs_obs.Metrics.epoch_lags entries in
    if Array.length lags > 0 then begin
      let fl = Array.map float_of_int lags in
      Printf.printf "epoch lag (ticks): p50 %.0f, p99 %.0f, max %.0f\n"
        (Qs_util.Stats.percentile fl 50.)
        (Qs_util.Stats.percentile fl 99.)
        (Qs_util.Stats.percentile fl 100.)
    end;
    Qs_obs.Export.save_chrome tracer (out_path "qsense_fallback.trace.json");
    Printf.printf "wrote out/qsense_fallback.trace.json\n\n%!"

  (* Minor words allocated per recorded event, measured through the sink
     exactly as the runtimes use it. Must be 0.0 enabled or disabled; the
     matching hard guard lives in test/test_obs.ml. *)
  let alloc_per_event ~enabled =
    let tracer = Qs_obs.Tracer.create ~enabled ~n_processes:1 ~capacity:1024 () in
    let s = Qs_obs.Tracer.sink tracer in
    let n = 100_000 in
    for i = 1 to 64 do
      s.record ~pid:0 ~time:i ~ev:Ev_retire ~a:i ~b:i
    done;
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      s.record ~pid:0 ~time:i ~ev:Ev_retire ~a:i ~b:i
    done;
    let w1 = Gc.minor_words () in
    (w1 -. w0) /. float_of_int n

  type overhead = {
    alloc_disabled : float;
    alloc_enabled : float;
    mops_sink_off : float;
    mops_sink_on : float;
    events_on : int;
  }

  (* The off run is the product configuration, the on run bounds what
     full tracing costs. *)
  let throughput_ab ~quick =
    let tracer = Qs_obs.Tracer.create ~n_processes:2 ~capacity:(1 lsl 16) () in
    let off, on =
      real_ab ~quick (fun s ->
          { s with sink = Some (Qs_obs.Tracer.sink tracer) })
    in
    (off, on, Qs_obs.Tracer.total tracer + Qs_obs.Tracer.total_dropped tracer)

  let overhead ~quick =
    let alloc_disabled = alloc_per_event ~enabled:false in
    let alloc_enabled = alloc_per_event ~enabled:true in
    let mops_sink_off, mops_sink_on, events_on = throughput_ab ~quick in
    { alloc_disabled; alloc_enabled; mops_sink_off; mops_sink_on; events_on }

  let print_overhead o =
    let tbl = Qs_util.Table.create [ "metric"; "value" ] in
    Qs_util.Table.add_row tbl
      [ "minor words/event (tracer disabled)";
        Printf.sprintf "%.4f" o.alloc_disabled ];
    Qs_util.Table.add_row tbl
      [ "minor words/event (tracer enabled)";
        Printf.sprintf "%.4f" o.alloc_enabled ];
    Qs_util.Table.add_row tbl
      [ "real cadence/list Mops/s (sink off)";
        Printf.sprintf "%.2f" o.mops_sink_off ];
    Qs_util.Table.add_row tbl
      [ "real cadence/list Mops/s (sink on)";
        Printf.sprintf "%.2f" o.mops_sink_on ];
    Qs_util.Table.add_row tbl
      [ "events recorded (sink on)"; string_of_int o.events_on ];
    Qs_util.Table.print tbl;
    print_newline ()

  let dashboard () =
    Printf.printf "== reclamation observatory (--trace) ==\n%!";
    cadence_age ();
    qsense_fallback ()
end

(* --- observed sim rows (--latency, --service) ----------------------------- *)

(* One simulator run with a latency recorder and a tracer installed, as
   the latency and service observatories' rows run it (seed 23). A stall
   row stalls the highest pid from 20k ticks to the end of the run and
   sets QSense's switch threshold to C = 48, so the scheme enters
   fallback well inside the run; every row attributes its p999-bucket
   outliers against the reclamation trace. *)
let observed_sim_run ~quick ~stall (setup : Qs_harness.Sim_exp.setup) =
  let module L = Qs_obs.Latency in
  let n = setup.n_processes in
  let rec_ =
    L.recorder ~n_processes:n ~n_kinds:(Qs_harness.Target.n_kinds setup.target) ()
  in
  let tracer = Qs_obs.Tracer.create ~n_processes:n ~capacity:(1 lsl 15) () in
  let duration = if stall then 600_000 else if quick then 150_000 else 400_000 in
  let r =
    Qs_harness.Sim_exp.run
      { setup with
        duration;
        seed = 23;
        latency = Some rec_;
        sink = Some (Qs_obs.Tracer.sink tracer);
        faults =
          (if stall then
             [ Qs_sim.Scheduler.Stall_at { pid = n - 1; at = 20_000; ticks = duration } ]
           else []);
        smr_tweak =
          (if stall then fun c -> { c with Qs_smr.Smr_intf.switch_threshold = 48 }
           else Fun.id) }
  in
  let merged = L.merged rec_ in
  let threshold = L.lower_edge (L.percentile_bucket merged 99.9) in
  let attr =
    Qs_obs.Metrics.attribute_spikes
      (Qs_obs.Tracer.to_array tracer)
      ~outliers:(L.outliers rec_) ~threshold
  in
  (r, rec_, merged, attr)

(* --- latency observatory (--latency) -------------------------------------- *)

(* Per-operation latency histograms on both runtimes (DESIGN.md §14):

   - a sim matrix {qsbr, hp, cadence, qsense} × {list, hashtable} ×
     process counts, each run recording per-{pid × op-kind} online
     histograms (durations in virtual ticks; end timestamps are
     meta-level clock reads, so the seeded schedule is byte-identical
     with the recorder on or off) with the tracer installed — every row
     carries p50/p99/p999/max plus a p999 spike attribution joining the
     recorder's top-K outliers against the reclamation event stream;
   - the robustness row ("stall"): QSense at C = 48 with a stalled
     victim that never resumes, so the scheme sits in fallback from
     ~150k ticks to the end of the run and the tail of the latency
     distribution IS fallback dwell. The CI gate asserts ≥ 80% of the
     p999-bucket spikes in this row carry a named cause;
   - the overhead A/B the zero-cost claim rests on: minor words
     allocated per recorded op (must be exactly 0 — [Latency.observe]
     is integer arithmetic over flat arrays) and real-runtime
     throughput with the recorder off vs on. *)
module Latency_obs = struct
  module L = Qs_obs.Latency
  module M = Qs_obs.Metrics

  type row = {
    ds : Qs_harness.Cset.kind;
    scheme : Qs_smr.Scheme.kind;
    n : int;
    stall : bool;
    ops : int;
    p50 : int;
    p99 : int;
    p999 : int;
    lmax : int;
    attr : M.attribution;
  }

  (* Shorter list than the throughput sweeps (128-key range): per-op
     latency on a 256-node list is thousands of ticks, which starves the
     histogram of samples inside the run budget. *)
  let key_range = function Qs_harness.Cset.List -> 128 | _ -> 4_096

  (* The stall row replays the calibrated robustness scenario from
     test/test_latency.ml: key range 32 keeps the victim's pinned epoch
     hot, C = 48 pushes QSense over the switch threshold well inside the
     run, and the never-ending stall leaves the fallback episode open to
     the end of the trace. *)
  let sim_row ~quick ~ds ~scheme ~n ~stall =
    let workload =
      Qs_workload.Spec.make
        ~key_range:(if stall then 32 else key_range ds)
        ~update_pct:50
    in
    let r, _, merged, attr =
      observed_sim_run ~quick ~stall
        (Qs_harness.Sim_exp.default_setup ~ds ~scheme ~n_processes:n ~workload)
    in
    { ds;
      scheme;
      n;
      stall;
      ops = r.Qs_harness.Sim_exp.ops_total;
      p50 = L.percentile merged 50.;
      p99 = L.percentile merged 99.;
      p999 = L.percentile merged 99.9;
      lmax = L.max_value merged;
      attr }

  let top_cause (a : M.attribution) =
    let named =
      List.filter
        (fun (c, k) -> c <> M.Unattributed && k > 0)
        a.M.attr_counts
    in
    match List.sort (fun (_, x) (_, y) -> compare y x) named with
    | (c, _) :: _ -> M.cause_name c
    | [] -> "-"

  let schemes =
    [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence;
      Qs_smr.Scheme.Qsense ]

  let rows ~quick =
    let domain_counts = if quick then [ 2 ] else [ 2; 4 ] in
    let clean =
      List.concat_map
        (fun ds ->
          List.concat_map
            (fun scheme ->
              List.map
                (fun n ->
                  let r = sim_row ~quick ~ds ~scheme ~n ~stall:false in
                  Printf.printf
                    "  %-9s %-9s %d procs: p999 %7d ticks, %d ops\n%!"
                    (Qs_harness.Cset.kind_to_string ds)
                    (Qs_smr.Scheme.to_string scheme)
                    n r.p999 r.ops;
                  r)
                domain_counts)
            schemes)
        [ Qs_harness.Cset.List; Qs_harness.Cset.Hashtable ]
    in
    let stall =
      sim_row ~quick ~ds:Qs_harness.Cset.List ~scheme:Qs_smr.Scheme.Qsense
        ~n:4 ~stall:true
    in
    Printf.printf
      "  stall row: p999 %d ticks, %d/%d spikes attributed (%.0f%%, top %s)\n%!"
      stall.p999
      (stall.attr.M.attr_total
      - List.assoc M.Unattributed stall.attr.M.attr_counts)
      stall.attr.M.attr_total
      (M.attributed_pct stall.attr)
      (top_cause stall.attr);
    clean @ [ stall ]

  (* Minor words per recorded op, measured exactly like the test-suite
     pin: warm the top-K rings first, then a 100k-op window that must
     allocate literally nothing. *)
  let alloc_words_per_record () =
    let r = L.recorder ~n_processes:1 ~n_kinds:Qs_workload.Spec.n_kinds () in
    for i = 1 to 1_024 do
      L.observe r ~pid:0 ~kind:(i mod 3) ~start:i ~dur:(i land 4095)
    done;
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      L.observe r ~pid:0 ~kind:(i mod 3) ~start:i ~dur:(i land 4095)
    done;
    (Gc.minor_words () -. w0) /. float_of_int n

  (* The off run is the product configuration, the on run bounds what
     always-on latency recording costs (one coarse-clock read per side of
     the op plus the histogram increment). *)
  let throughput_ab ~quick =
    let rec_ =
      L.recorder ~n_processes:2 ~n_kinds:Qs_workload.Spec.n_kinds ()
    in
    let off, on = real_ab ~quick (fun s -> { s with latency = Some rec_ }) in
    (off, on, L.count (L.merged rec_))

  type report = {
    lat_rows : row list;
    alloc_words : float;
    mops_off : float;
    mops_on : float;
    recorded_on : int;
  }

  let overhead_pct rep =
    if rep.mops_off <= 0. then 0.
    else 100. *. (1. -. (rep.mops_on /. rep.mops_off))

  let run ~quick =
    let lat_rows = rows ~quick in
    let alloc_words = alloc_words_per_record () in
    let mops_off, mops_on, recorded_on = throughput_ab ~quick in
    { lat_rows; alloc_words; mops_off; mops_on; recorded_on }

  let print_tables rep =
    let tbl =
      Qs_util.Table.create
        [ "structure"; "scheme"; "procs"; "stall"; "ops"; "p50"; "p99";
          "p999"; "max"; "spikes"; "attr %"; "top cause" ]
    in
    List.iter
      (fun r ->
        Qs_util.Table.add_row tbl
          [ Qs_harness.Cset.kind_to_string r.ds;
            Qs_smr.Scheme.to_string r.scheme;
            string_of_int r.n;
            string_of_bool r.stall;
            string_of_int r.ops;
            string_of_int r.p50;
            string_of_int r.p99;
            string_of_int r.p999;
            string_of_int r.lmax;
            string_of_int r.attr.M.attr_total;
            Printf.sprintf "%.0f" (M.attributed_pct r.attr);
            top_cause r.attr ])
      rep.lat_rows;
    Qs_util.Table.print tbl;
    let ov = Qs_util.Table.create [ "metric"; "value" ] in
    Qs_util.Table.add_row ov
      [ "minor words/recorded op"; Printf.sprintf "%.4f" rep.alloc_words ];
    Qs_util.Table.add_row ov
      [ "real cadence/list Mops/s (recorder off)";
        Printf.sprintf "%.2f" rep.mops_off ];
    Qs_util.Table.add_row ov
      [ "real cadence/list Mops/s (recorder on)";
        Printf.sprintf "%.2f" rep.mops_on ];
    Qs_util.Table.add_row ov
      [ "recorder overhead (%)"; Printf.sprintf "%.1f" (overhead_pct rep) ];
    Qs_util.Table.add_row ov
      [ "ops recorded (on run)"; string_of_int rep.recorded_on ];
    Qs_util.Table.print ov;
    print_newline ()
end

(* --- KV service observatory (--service) ----------------------------------- *)

(* The epoch-protected KV service (DESIGN.md §15) measured end to end:

   - a sim matrix {qsbr, hp, cadence, qsense} × {uniform, zipfian}: four
     worker processes replay a multi-tenant trace (60/20/10/10
     get/put/del/scan, bursty open-loop arrivals) against the sharded
     service with handler churn live, recording per-op-kind latency
     histograms — p50/p99/p999 in virtual ticks per kind, plus the
     whole-run p999 spike attribution against the reclamation trace;
   - the robustness row: QSense at C = 48 with a stalled victim and a
     hot keyspace, closed loop, so the service dwells in fallback and
     the p999 bucket IS fallback dwell. CI gates its attribution ≥ 80%;
   - a real-domain row: wall-clock Mops through the same service with
     handler churn across domain generations;
   - the zero-alloc pin: minor words per [Kv.get] on the real runtime —
     the read-only bucket probe plus scheme quiescence bookkeeping must
     allocate exactly nothing. *)
module Service_obs = struct
  module L = Qs_obs.Latency
  module M = Qs_obs.Metrics
  module Ksp = Qs_workload.Kv_spec
  module Sx = Qs_harness.Sim_exp

  type kind_row = { kops : int; kp50 : int; kp99 : int; kp999 : int }

  type row = {
    scheme : Qs_smr.Scheme.kind;
    dist : Ksp.dist;
    stall : bool;
    ops : int;
    violations : int;
    churn_events : int;
    leak_ok : bool;
    kinds : (string * kind_row) list;
    p999 : int;
    attr : M.attribution;
  }

  let dist_name = function Ksp.Uniform -> "uniform" | Ksp.Zipfian _ -> "zipfian"

  let mix = { Ksp.get_pct = 60; put_pct = 20; del_pct = 10; scan_pct = 10 }

  (* The stall row trades read-heaviness for retire pressure: the victim
     pins its epoch over a 32-key space while the survivors' deletes push
     QSense over the switch threshold, as in the latency observatory's
     calibrated scenario. No scans: range restarts under this much delete
     churn are their own (legitimate) spike source and would dilute the
     fallback attribution this row exists to measure. *)
  let stall_mix = { Ksp.get_pct = 34; put_pct = 33; del_pct = 33; scan_pct = 0 }

  (* The open-loop gap provisions each worker just under the slowest
     scheme's simulated service rate (~1.6k ticks/request for HP), so
     steady state is un-queued for every scheme and the tail comes from
     bursts (gap/4 for 8 requests every 64) and reclamation pauses, not
     from a permanently growing backlog. *)
  let make_gen ~dist ~stall ~n =
    let spec =
      if stall then Ksp.make ~keys_per_tenant:32 ~mix:stall_mix ()
      else
        Ksp.make ~tenants:2 ~dist ~keys_per_tenant:2_048 ~mix ~scan_span:16
          ~base_gap:2_000
          ~burst:{ Ksp.every = 64; len = 8; factor = 4 }
          ()
    in
    Qs_workload.Kv_gen.make spec ~n_processes:n ~ops_per_process:4_096 ~seed:23

  let sim_row ~quick ~scheme ~dist ~stall =
    let n = 4 in
    let target =
      Qs_harness.Target.Kv { gen = make_gen ~dist ~stall ~n; n_shards = 4 }
    in
    let r, rec_, merged, attr =
      observed_sim_run ~quick ~stall
        { (Sx.target_setup ~target ~scheme ~n_processes:n) with
          churn =
            (if stall then None
             else Some { Sx.every_ops = 40; downtime = 2_000 }) }
    in
    let kinds =
      List.init Ksp.n_kinds (fun k ->
          let h = L.merged_kind rec_ ~kind:k in
          ( Ksp.kind_name k,
            { kops = r.Sx.per_kind_ops.(k);
              kp50 = L.percentile h 50.;
              kp99 = L.percentile h 99.;
              kp999 = L.percentile h 99.9 } ))
    in
    { scheme;
      dist;
      stall;
      ops = r.Sx.ops_total;
      violations = r.Sx.violations;
      churn_events = r.Sx.churn_events;
      leak_ok =
        (match r.Sx.leak_check with `Ok | `Skipped -> true | `Leaked _ -> false);
      kinds;
      p999 = L.percentile merged 99.9;
      attr }

  let rows ~quick =
    let matrix =
      List.concat_map
        (fun scheme ->
          List.map
            (fun dist ->
              let r = sim_row ~quick ~scheme ~dist ~stall:false in
              Printf.printf
                "  %-9s %-8s: %6d reqs, p999 %7d ticks, %d churns%s\n%!"
                (Qs_smr.Scheme.to_string scheme)
                (dist_name r.dist) r.ops r.p999 r.churn_events
                (if r.leak_ok then "" else " LEAK");
              r)
            [ Ksp.Uniform; Ksp.Zipfian 0.9 ])
        Latency_obs.schemes
    in
    let stall =
      sim_row ~quick ~scheme:Qs_smr.Scheme.Qsense ~dist:Ksp.Uniform
        ~stall:true
    in
    Printf.printf
      "  stall row: p999 %d ticks, %d spikes, %.0f%% attributed (top %s)\n%!"
      stall.p999 stall.attr.M.attr_total
      (M.attributed_pct stall.attr)
      (Latency_obs.top_cause stall.attr);
    matrix @ [ stall ]

  module Kr = Qs_service.Kv.Make (Qs_real.Real_runtime)

  (* Minor words per [step] on a warmed-up real QSense service holding the
     even keys of [0, 1024), measured over 200k steps after 4,096 warm-up
     steps. Must be exactly 0 — these are pins CI gates on. *)
  let alloc_words step =
    let base =
      { (Qs_ds.Set_intf.default_config ~n_processes:1
           ~scheme:Qs_smr.Scheme.Qsense)
        with Qs_ds.Set_intf.debug_checks = false }
    in
    let c = Kr.register (Kr.create ~n_shards:4 base) ~pid:0 in
    for k = 0 to 511 do
      ignore (Kr.put c (2 * k))
    done;
    for i = 1 to 4_096 do
      step c i
    done;
    let nops = 200_000 in
    let w0 = Gc.minor_words () in
    for i = 1 to nops do
      step c i
    done;
    (Gc.minor_words () -. w0) /. float_of_int nops

  (* [Kv.get]: the shard route (Fibonacci multiply + shift), the read-only
     bucket probe and the scheme's amortized quiescence round. *)
  let get_alloc_words () =
    alloc_words (fun c i -> ignore (Kr.get c (i land 1023)))

  (* A [Kv.put] of an absent (odd) key and the [Kv.del] of it: an insert
     and a delete in a shard table and in the index, with the retired
     nodes freed by QSense scans and recycled by the arena. *)
  let put_del_alloc_words () =
    alloc_words (fun c i ->
        let k = (2 * (i land 511)) + 1 in
        ignore (Kr.put c k && Kr.del c k))

  type real_row = {
    r_scheme : Qs_smr.Scheme.kind;
    r_domains : int;
    r_ops : int;
    r_mops : float;
    r_violations : int;
    r_failed : bool;
    r_churn : int;
  }

  let real_row ~quick =
    let n = if quick then 2 else 4 in
    let spec =
      Ksp.make ~tenants:2 ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:2_048
        ~mix ~scan_span:16 ()
    in
    let gen =
      Qs_workload.Kv_gen.make spec ~n_processes:n ~ops_per_process:8_192
        ~seed:42
    in
    let r =
      Qs_harness.Real_exp.run
        { (Qs_harness.Real_exp.target_setup
             ~target:(Qs_harness.Target.Kv { gen; n_shards = 4 })
             ~scheme:Qs_smr.Scheme.Qsense ~n_domains:n)
          with
          duration_ms = (if quick then 50 else 200);
          churn = Some { Qs_harness.Real_exp.generations = 2; downtime_ms = 2 } }
    in
    { r_scheme = Qs_smr.Scheme.Qsense;
      r_domains = n;
      r_ops = r.Qs_harness.Real_exp.ops_total;
      r_mops = r.throughput_mops;
      r_violations = r.violations;
      r_failed = r.failed;
      r_churn = r.churn_events }

  type report = {
    svc_rows : row list;  (** matrix rows, stall row last *)
    real : real_row;
    get_alloc_words : float;
    put_del_alloc_words : float;
  }

  let run ~quick =
    let svc_rows = rows ~quick in
    let real = real_row ~quick in
    let get_alloc_words = get_alloc_words () in
    let put_del_alloc_words = put_del_alloc_words () in
    { svc_rows; real; get_alloc_words; put_del_alloc_words }

  let print_tables rep =
    let tbl =
      Qs_util.Table.create
        [ "scheme"; "dist"; "stall"; "reqs"; "viol"; "churns";
          "get p50/p999"; "put p999"; "scan p999"; "p999"; "attr %" ]
    in
    List.iter
      (fun r ->
        let kr name = List.assoc name r.kinds in
        Qs_util.Table.add_row tbl
          [ Qs_smr.Scheme.to_string r.scheme;
            dist_name r.dist;
            string_of_bool r.stall;
            string_of_int r.ops;
            string_of_int r.violations;
            string_of_int r.churn_events;
            Printf.sprintf "%d/%d" (kr "get").kp50 (kr "get").kp999;
            string_of_int (kr "put").kp999;
            string_of_int (kr "scan").kp999;
            string_of_int r.p999;
            Printf.sprintf "%.0f" (M.attributed_pct r.attr) ])
      rep.svc_rows;
    Qs_util.Table.print tbl;
    let ov = Qs_util.Table.create [ "metric"; "value" ] in
    Qs_util.Table.add_row ov
      [ "minor words per get (real, qsense)";
        Printf.sprintf "%.4f" rep.get_alloc_words ];
    Qs_util.Table.add_row ov
      [ "minor words per put+del pair (real, qsense)";
        Printf.sprintf "%.4f" rep.put_del_alloc_words ];
    Qs_util.Table.add_row ov
      [ Printf.sprintf "real %s x%d Mops/s (churned)"
          (Qs_smr.Scheme.to_string rep.real.r_scheme)
          rep.real.r_domains;
        Printf.sprintf "%.2f" rep.real.r_mops ];
    Qs_util.Table.add_row ov
      [ "real requests / violations";
        Printf.sprintf "%d / %d" rep.real.r_ops rep.real.r_violations ];
    Qs_util.Table.print ov;
    print_newline ()
end

(* --- JSON report (schema 10) ---------------------------------------------- *)

(* Consumed by [bench/trend.exe] (the bench gate, and the committed
   BENCH_HISTORY.jsonl) and by EXPERIMENTS.md readers.
   Schema 10 = schema 9 without the settled A/B comparisons against
   deleted reference paths: "retire_scan" rows carry only the production
   bag path's ns/retire, "bags" only its capacity and the retire-path
   allocation pin, and the "membership" section is gone. The "e2e",
   "rivals", "trace" sections and the "churn" flag are as in schema 8.
   The "service" section ([null] unless the bench ran with [--service])
   holds the KV service's zero-alloc pins (minor words per get, and per
   put+del pair of an absent key), a real-domain
   churned-throughput row, and one sim row per {scheme × key
   distribution} — requests, violations, churn events, leak check,
   per-op-kind p50/p99/p999 in virtual ticks, and the whole-run p999
   spike attribution. The last row is the QSense stall scenario; the
   gate requires its attribution ≥ 80%. The "latency" section is as in
   schema 8 (the [--latency] observatory; its last row's attribution is
   gated the same way). The "explorer" section is emitted as [null] here;
   [explore.exe profile --out out/BENCH_RESULTS.json] fills it in (the
   numbers belong to the explorer binary, which owns the representative
   case mix). *)
module Json = Qs_util.Json

let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let scheme k = str (Qs_smr.Scheme.to_string k)

(* The p999 spike attribution of one latency or service row. *)
let attr_fields (a : Qs_obs.Metrics.attribution) =
  [ ("p999_samples", int a.Qs_obs.Metrics.attr_total);
    ("attr_pct", Json.Num (Qs_obs.Metrics.attributed_pct a));
    ("attr",
     Json.Obj
       (List.map
          (fun (c, k) -> (Qs_obs.Metrics.cause_name c, int k))
          a.Qs_obs.Metrics.attr_counts)) ]

let e2e_json (r : E2e.result) =
  Json.Obj
    [ ("ds", str (Qs_harness.Cset.kind_to_string r.ds)); ("scheme", scheme r.scheme);
      ("domains", int r.n_domains); ("throughput_mops", Json.Num r.throughput_mops);
      ("retired_peak", int r.retired_peak); ("reuse_ratio", Json.Num r.reuse_ratio);
      ("violations", int r.violations); ("failed", Json.Bool r.failed);
      ("churn_events", int r.churn_events) ]

let trace_json (t : Observatory.overhead) =
  Json.Obj
    [ ("alloc_words_per_event_disabled", Json.Num t.alloc_disabled);
      ("alloc_words_per_event_enabled", Json.Num t.alloc_enabled);
      ("real_mops_sink_off", Json.Num t.mops_sink_off);
      ("real_mops_sink_on", Json.Num t.mops_sink_on);
      ("events_recorded_sink_on", int t.events_on) ]

let latency_json (rep : Latency_obs.report) =
  let row (r : Latency_obs.row) =
    Json.Obj
      ([ ("ds", str (Qs_harness.Cset.kind_to_string r.ds)); ("scheme", scheme r.scheme);
         ("procs", int r.n); ("stall", Json.Bool r.stall); ("ops", int r.ops);
         ("p50", int r.p50); ("p99", int r.p99); ("p999", int r.p999); ("max", int r.lmax) ]
      @ attr_fields r.attr)
  in
  Json.Obj
    [ ("alloc_words_per_record", Json.Num rep.alloc_words);
      ("real_mops_recorder_off", Json.Num rep.mops_off);
      ("real_mops_recorder_on", Json.Num rep.mops_on);
      ("overhead_pct", Json.Num (Latency_obs.overhead_pct rep));
      ("ops_recorded_on", int rep.recorded_on);
      ("rows", Json.Arr (List.map row rep.lat_rows)) ]

let service_json (rep : Service_obs.report) =
  let rr = rep.real in
  let kind (name, (k : Service_obs.kind_row)) =
    ( name,
      Json.Obj
        [ ("ops", int k.kops); ("p50", int k.kp50); ("p99", int k.kp99);
          ("p999", int k.kp999) ] )
  in
  let row (r : Service_obs.row) =
    Json.Obj
      ([ ("scheme", scheme r.scheme); ("dist", str (Service_obs.dist_name r.dist));
         ("stall", Json.Bool r.stall); ("ops", int r.ops); ("violations", int r.violations);
         ("churn_events", int r.churn_events); ("leak_ok", Json.Bool r.leak_ok);
         ("p999", int r.p999) ]
      @ attr_fields r.attr
      @ [ ("kinds", Json.Obj (List.map kind r.kinds)) ])
  in
  Json.Obj
    [ ("get_alloc_words_per_op", Json.Num rep.get_alloc_words);
      ("put_del_alloc_words_per_op", Json.Num rep.put_del_alloc_words);
      ("real",
       Json.Obj
         [ ("scheme", scheme rr.r_scheme); ("domains", int rr.r_domains);
           ("ops", int rr.r_ops); ("throughput_mops", Json.Num rr.r_mops);
           ("violations", int rr.r_violations); ("failed", Json.Bool rr.r_failed);
           ("churn_events", int rr.r_churn) ]);
      ("rows", Json.Arr (List.map row rep.svc_rows)) ]

let emit_json ~path ~quick ~churn ~retire_scan ~bag_alloc_words ~e2e ~rivals
    ~trace ~latency ~service =
  let retire_scan_row (r : Micro.result) =
    Json.Obj
      [ ("scenario", str (Micro.scenario_name r.scenario));
        ("limbo", int r.limbo);
        ("bag_ns_per_op", Json.Num r.bag_ns) ]
  in
  let bag_capacity =
    (Qs_smr.Smr_intf.default_config ~n_processes:Micro.n_processes
       ~hp_per_process:Micro.hp_per_process)
      .Qs_smr.Smr_intf.bag_capacity
  in
  let optional f = function None -> Json.Null | Some rep -> f rep in
  let doc =
    Json.Obj
      [ ("schema", int 10);
        ("explorer", Json.Null);
        ("quick", Json.Bool quick);
        ("churn", Json.Bool churn);
        ("n_processes", int Micro.n_processes);
        ("hp_per_process", int Micro.hp_per_process);
        ("retire_scan", Json.Arr (List.map retire_scan_row retire_scan));
        ("bags",
         Json.Obj
           [ ("capacity", int bag_capacity);
             ("retire_alloc_words", Json.Num bag_alloc_words) ]);
        ("e2e", Json.Arr (List.map e2e_json e2e));
        ("rivals", Json.Arr (List.map e2e_json rivals));
        ("trace", trace_json trace);
        ("latency", optional latency_json latency);
        ("service", optional service_json service) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let micro_only = List.mem "--micro-only" argv in
  let e2e = List.mem "--e2e" argv in
  let churn = List.mem "--churn" argv in
  let trace = List.mem "--trace" argv in
  let latency = List.mem "--latency" argv in
  let service = List.mem "--service" argv in
  R.register_self 0;
  (* roosters give Cadence/QSense their coarse clock and wake-up guarantee *)
  let roosters = Qs_real.Roosters.start ~interval_ns:2_000_000 ~n:1 in
  if not micro_only then begin
    ignore
      (run_group "primitives (real x86 costs)"
         (Test.make_grouped ~name:"prim" primitives));
    if not quick then begin
      ignore
        (run_group "fig3: list, 10% updates"
           (List_b.group ~group_name:"fig3" ~update_pct:10));
      let list_r = run_group "fig5-top: list, 50% updates" (List_b.group ~group_name:"list50" ~update_pct:50) in
      let skip_r = run_group "fig5-top: skiplist, 50% updates" (Skip_b.group ~group_name:"skip50" ~update_pct:50) in
      let bst_r = run_group "fig5-top: bst, 50% updates" (Bst_b.group ~group_name:"bst50" ~update_pct:50) in
      let hash_r = run_group "extra: hashtable, 50% updates" (Hash_b.group ~group_name:"hash50" ~update_pct:50) in
      ignore (run_group "extra: treiber stack, push+pop" (Stack_b.group ()));
      ignore (run_group "extra: michael-scott queue, enq+deq" (Queue_b.group ()));
      Printf.printf "== §7.3-style overhead table (derived from ns/op above) ==\n%!";
      overhead_table
        [ ("list", list_r); ("skiplist", skip_r); ("bst", bst_r); ("hashtable", hash_r) ]
    end
  end;
  Printf.printf
    "== retire/scan microbenchmark (Cadence, 64-node bags, hash scan set) ==\n%!";
  let sizes = if quick then [ 100; 1_000; 10_000 ] else [ 100; 1_000; 10_000; 100_000 ] in
  let target_ops = if quick then 200_000 else 2_000_000 in
  let results = Micro.run ~sizes ~target_ops in
  Micro.print_table results;
  let bag_alloc_words = Micro.bag_retire_alloc_words ~limbo:10_000 in
  Printf.printf "bag retire path steady-state allocation: %.0f words / 10000 retires\n\n%!"
    bag_alloc_words;
  let e2e_results =
    if e2e then begin
      Printf.printf "== end-to-end sweep on real domains (%s%s) ==\n%!"
        (if quick then "quick" else "full")
        (if churn then ", with worker churn" else "");
      let rs = E2e.run ~quick ~churn in
      E2e.print_table rs;
      rs
    end
    else []
  in
  let rival_results =
    if e2e then begin
      Printf.printf "== rival schemes on real domains (debra-plus, hyaline) ==\n%!";
      let rs = E2e.run_rivals ~quick ~churn in
      E2e.print_table rs;
      rs
    end
    else []
  in
  if trace then Observatory.dashboard ();
  Printf.printf "== tracing overhead (sink off vs on, alloc per event) ==\n%!";
  let trace_overhead = Observatory.overhead ~quick in
  Observatory.print_overhead trace_overhead;
  let latency_report =
    if latency then begin
      Printf.printf
        "== latency observatory (--latency): per-op histograms + p999 \
         attribution ==\n%!";
      let rep = Latency_obs.run ~quick in
      Latency_obs.print_tables rep;
      Some rep
    end
    else None
  in
  let service_report =
    if service then begin
      Printf.printf
        "== KV service observatory (--service): sharded store, open-loop \
         traces ==\n%!";
      let rep = Service_obs.run ~quick in
      Service_obs.print_tables rep;
      Some rep
    end
    else None
  in
  emit_json ~path:(out_path "BENCH_RESULTS.json") ~quick ~churn
    ~retire_scan:results ~bag_alloc_words ~e2e:e2e_results
    ~rivals:rival_results ~trace:trace_overhead ~latency:latency_report
    ~service:service_report;
  Qs_real.Roosters.stop roosters;
  (* The multi-core figures come from the simulator: *)
  print_endline "Scalability and robustness figures (multi-core) are produced by the";
  print_endline "deterministic simulator: `dune exec bin/repro.exe -- all [--scale full]`."
