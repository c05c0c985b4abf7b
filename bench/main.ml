(* Benchmarks on the REAL runtime (OCaml 5 domains, real x86 fences) plus
   the simulator observatories, in one run. Every section always runs;
   [--quick] shrinks sizes and durations.

   - primitives:    the cost model the paper's argument rests on: a plain
                    store (Cadence's HP publication) vs an SC store vs a
                    full fence (classic HP's publication) vs CAS. The
                    plain store is an [int] store, exactly what a publish
                    does: hazard-pointer slots hold node ids, so a publish
                    pays no GC write barrier ([caml_modify]).
   - per-op cost:   the paper's §7.3 framing on one domain through
                    {!Qs_harness.Real_exp}: ns/op of the Figure 3
                    configuration (list, 10% updates) and the Figure 5
                    top-row configurations (50% updates: list, skiplist,
                    bst, hashtable) under each scheme, with the average
                    overhead vs the leaky baseline and the speedup vs HP.
   - retire/scan:   the production bag path's ns/retire.
   - e2e, observatory, latency, service: see each module below.

   The multi-core scalability curves come from the simulator
   (bin/repro.exe). On x86 the fence in [assign_hp] costs the same whether
   or not other cores run, so the one-domain overhead ratios are the
   paper's. *)

module R = Qs_real.Real_runtime

(* Every generated artifact (JSON report, Perfetto traces, CSVs) lands in
   the gitignored [out/] directory instead of littering the repo root. *)
let out_path name =
  let dir = "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir name

(* The hand-timed sections' one timing method: [rounds] rounds of the [n]
   calls [f 0] .. [f (n - 1)] on the wall clock, [reset] run untimed after
   each round; the best round's ns per call. *)
let best_ns_per_call ?(reset = ignore) ~rounds ~n f =
  let best = ref max_float in
  for _ = 1 to rounds do
    let t0 = R.now () in
    for i = 0 to n - 1 do
      f i
    done;
    let dt = float_of_int (R.now () - t0) in
    if dt < !best then best := dt;
    reset ()
  done;
  !best /. float_of_int n

(* --- primitives ---------------------------------------------------------- *)

module Primitives = struct
  let plain_cell = R.plain 1 0
  let atomic_cell = R.atomic 0

  let cases =
    [ ("plain-write (cadence HP publish)", fun _ -> R.write plain_cell 0 42);
      ("plain-read", fun _ -> ignore (R.read plain_cell 0));
      ("atomic-get", fun _ -> ignore (R.get atomic_cell));
      ("atomic-set", fun _ -> R.set atomic_cell 42);
      ("fence (classic HP publish)", fun _ -> R.fence ());
      ("cas",
       fun _ ->
         let v = R.get atomic_cell in
         ignore (R.cas atomic_cell v v)) ]

  let run ~quick =
    let rounds = if quick then 5 else 20 in
    let tbl = Qs_util.Table.create [ "primitive"; "ns/op" ] in
    List.iter
      (fun (name, f) ->
        let ns = best_ns_per_call ~rounds ~n:1_000_000 f in
        Qs_util.Table.add_row tbl [ name; Printf.sprintf "%.2f" ns ])
      cases;
    Qs_util.Table.print tbl;
    print_newline ()
end

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

   A round is L retires from an empty limbo; the best round is reported. *)

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
    (* Keep rounds start from an empty limbo; Drain rounds already do. *)
    best_ns_per_call ~reset:(fun () -> Cad.flush h) ~rounds ~n:limbo (fun i ->
        Cad.retire h nodes.(i))

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
   {qsbr, hp, cadence, qsense, debra-plus, hyaline} × {list, hashtable} ×
   domain counts, the incumbents and the rival schemes (DESIGN.md §13) in
   one matrix, every run with worker churn. It measures aggregate
   throughput with reclamation actually feeding the allocator:
   [reuse_ratio] is the share of allocations that
   recycled a freed node, and [retired_peak] bounds the limbo memory. A
   low or zero [reuse_ratio] is not by itself a fault: these runs are
   short (50 ms per worker generation at --quick), and a scheme that scans
   after R retires recycles nothing in a generation that retires fewer
   than R nodes (HP on the list). On machines with fewer cores
   than domains the domains timeshare; the numbers remain a valid
   safety/recycling check (violations = 0, failed = false) even when the
   scalability shape flattens. *)
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
      Qs_smr.Scheme.Qsense; Qs_smr.Scheme.Debra_plus; Qs_smr.Scheme.Hyaline ]

  let structures = [ Qs_harness.Cset.List; Qs_harness.Cset.Hashtable ]

  let domain_counts ~quick =
    List.sort_uniq compare
      (if quick then [ 1; 2 ]
       else [ 1; 2; 4; Domain.recommended_domain_count () ])

  (* The repro figures' quick key ranges, at any scale; the structure is
     pre-filled to half. *)
  let run_one ~quick ~ds ~scheme ~n_domains ~update_pct ~churn =
    let workload =
      Qs_workload.Spec.make
        ~key_range:(Qs_harness.Figures.range_of Qs_harness.Figures.Quick ds)
        ~update_pct
    in
    let setup =
      { (Qs_harness.Real_exp.default_setup ~ds ~scheme ~n_domains ~workload) with
        duration_ms = (if quick then 50 else 250);
        (* three worker generations per pid slot, each handing its limbo
           lists to the orphan pool for the survivors to adopt *)
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

  let run ~quick =
    List.concat_map
      (fun ds ->
        List.concat_map
          (fun scheme ->
            List.map
              (fun n_domains ->
                let r =
                  run_one ~quick ~ds ~scheme ~n_domains ~update_pct:20 ~churn:true
                in
                Printf.printf "  %-9s %-9s %d domains: %6.2f Mops/s (%d churn events)\n%!"
                  (Qs_harness.Cset.kind_to_string ds)
                  (Qs_smr.Scheme.to_string scheme)
                  n_domains r.throughput_mops r.churn_events;
                r)
              (domain_counts ~quick))
          schemes)
      structures

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

(* --- per-operation cost (§7.3) --------------------------------------------- *)

(* The paper's §7.3 numbers on real hardware: each run is one
   {!E2e.run_one} at one domain without churn, so the scheme configuration
   (T = the rooster interval, roosters started by {!Qs_harness.Real_exp})
   is the one every other real-domain number uses. ns/op = 1000 / Mops.
   Each cell runs [rounds] times, in interleaved rounds (a round runs
   every cell once, so host drift over the run moves all cells alike),
   and reports the median and the interquartile range. The averages
   cover the four Figure 5 columns, from the medians: overhead vs none is
   [1 - none/cost], speedup vs hp is [hp/cost]. A column's order of
   schemes writes [<] only where the IQRs separate. *)
module Per_op = struct
  let schemes =
    [ Qs_smr.Scheme.None_; Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Qsense;
      Qs_smr.Scheme.Cadence; Qs_smr.Scheme.Hp ]

  (* (column, structure, update %): Figure 3, then the Figure 5 top row. *)
  let fig3 = ("fig3 list 10%", Qs_harness.Cset.List, 10)

  let fig5 =
    List.map
      (fun ds -> (Qs_harness.Cset.kind_to_string ds ^ " 50%", ds, 50))
      [ Qs_harness.Cset.List; Qs_harness.Cset.Skiplist; Qs_harness.Cset.Bst;
        Qs_harness.Cset.Hashtable ]

  let rounds = 5

  type cell = { median : float; q1 : float; q3 : float }

  (* ns/op per (column, scheme). *)
  let run ~quick =
    let cells =
      List.concat_map
        (fun (col, ds, update_pct) ->
          List.map (fun scheme -> (col, ds, update_pct, scheme)) schemes)
        (fig3 :: fig5)
    in
    let n = List.length cells in
    let ns = Array.make_matrix n rounds 0.
    and violations = Array.make n 0
    and failed = Array.make n false in
    for round = 0 to rounds - 1 do
      List.iteri
        (fun i (_, ds, update_pct, scheme) ->
          let r =
            E2e.run_one ~quick ~ds ~scheme ~n_domains:1 ~update_pct ~churn:false
          in
          ns.(i).(round) <- 1000. /. r.throughput_mops;
          violations.(i) <- violations.(i) + r.violations;
          failed.(i) <- failed.(i) || r.failed)
        cells
    done;
    List.mapi
      (fun i (col, _, _, scheme) ->
        let q = Qs_util.Stats.percentile ns.(i) in
        let c = { median = q 50.; q1 = q 25.; q3 = q 75. } in
        Printf.printf
          "  %-15s %-8s %8.1f ns/op, IQR %.1f-%.1f (%d violations, failed %b)\n%!"
          col (Qs_smr.Scheme.to_string scheme) c.median c.q1 c.q3 violations.(i)
          failed.(i);
        ((col, scheme), c))
      cells

  (* Schemes from fastest to slowest median: [<] where one's IQR ends
     below the next one's, [~] where they overlap. *)
  let order cost col =
    match
      List.sort
        (fun (_, a) (_, b) -> compare a.median b.median)
        (List.map (fun scheme -> (scheme, cost col scheme)) schemes)
    with
    | [] -> ""
    | (first, c0) :: rest ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Qs_smr.Scheme.to_string first);
      ignore
        (List.fold_left
           (fun prev (scheme, c) ->
             Buffer.add_string buf (if prev.q3 < c.q1 then " < " else " ~ ");
             Buffer.add_string buf (Qs_smr.Scheme.to_string scheme);
             c)
           c0 rest);
      Buffer.contents buf

  let print_table costs =
    let cost col scheme = List.assoc (col, scheme) costs in
    let median col scheme = (cost col scheme).median in
    let cols = List.map (fun (col, _, _) -> col) fig5 in
    let fig3_col, _, _ = fig3 in
    let tbl =
      Qs_util.Table.create
        (("scheme"
         :: List.map (fun col -> col ^ " ns/op (IQR)") (fig3_col :: cols))
        @ [ "avg overhead vs none (%)"; "speedup vs hp" ])
    in
    let mean f = Qs_util.Stats.mean (Array.of_list (List.map f cols)) in
    List.iter
      (fun scheme ->
        let m col = median col scheme in
        Qs_util.Table.add_row tbl
          ((Qs_smr.Scheme.to_string scheme
           :: List.map
                (fun col ->
                  let c = cost col scheme in
                  Printf.sprintf "%.0f (%.0f-%.0f)" c.median c.q1 c.q3)
                (fig3_col :: cols))
          @ [ Printf.sprintf "%.1f"
                (mean (fun col ->
                     100. *. (1. -. (median col Qs_smr.Scheme.None_ /. m col))));
              Printf.sprintf "%.2fx"
                (mean (fun col -> median col Qs_smr.Scheme.Hp /. m col)) ]))
      schemes;
    Qs_util.Table.print tbl;
    Printf.printf "order by median (< where the IQRs separate, ~ where they overlap):\n";
    List.iter
      (fun col -> Printf.printf "  %-15s %s\n" col (order cost col))
      (fig3_col :: cols);
    print_newline ()
end

(* Real-domain Mops/s of the same cadence/list run bare and with one
   instrument installed ([instrument] edits the setup): the overhead A/B
   each observatory's zero-cost claim rests on. One pair of short runs is
   mostly host noise (seven 50 ms pairs read -5% to +46% overhead), so the
   two sides alternate over [ab_rounds] rounds, each round flipping which
   runs first, and each side reports its median, as [Per_op] does. The
   instrument is installed once: what it records sums over its runs. *)
let ab_rounds = 7

let real_ab ~quick instrument =
  let base =
    { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
         ~scheme:Qs_smr.Scheme.Cadence ~n_domains:2
         ~workload:(Qs_workload.Spec.make ~key_range:512 ~update_pct:50))
      with
      duration_ms = (if quick then 50 else 200);
      seed = 42 }
  in
  let instrumented = instrument base in
  let mops setup = (Qs_harness.Real_exp.run setup).Qs_harness.Real_exp.throughput_mops in
  let off = Array.make ab_rounds 0. and on = Array.make ab_rounds 0. in
  for r = 0 to ab_rounds - 1 do
    if r land 1 = 0 then begin
      off.(r) <- mops base;
      on.(r) <- mops instrumented
    end
    else begin
      on.(r) <- mops instrumented;
      off.(r) <- mops base
    end
  done;
  (Qs_util.Stats.median off, Qs_util.Stats.median on)

(* --- reclamation observatory --------------------------------------------- *)

(* The tracing subsystem exercised end to end (see DESIGN.md §9 and
   EXPERIMENTS.md, "Reclamation observatory"):

   - a traced Cadence run on the simulator, rendering the age-at-free
     histogram whose minimum exhibits the paper's [T + epsilon] floor, plus
     per-process limbo-depth sparklines — and exporting the trace as Chrome
     trace-event JSON (Perfetto) and CSV;
   - a traced QSense run with a stalled victim, rendering the fallback
     round-trip (enter → dwell → exit) as a timeline;
   - the overhead A/B the zero-cost claim rests on: real-runtime
     throughput with the sink off vs on. The off/on numbers land in the
     JSON report's "trace" section so CI can watch them (the tracer's
     zero-allocation pin is test/test_obs.ml's). *)
module Observatory = struct
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

  type overhead = {
    mops_sink_off : float;
    mops_sink_on : float;
    events_on : int;
  }

  (* The off run is the product configuration, the on run bounds what
     full tracing costs. *)
  let overhead ~quick =
    let tracer = Qs_obs.Tracer.create ~n_processes:2 ~capacity:(1 lsl 16) () in
    let mops_sink_off, mops_sink_on =
      real_ab ~quick (fun s ->
          { s with sink = Some (Qs_obs.Tracer.sink tracer) })
    in
    let events_on = Qs_obs.Tracer.total tracer + Qs_obs.Tracer.total_dropped tracer in
    { mops_sink_off; mops_sink_on; events_on }

  let print_overhead o =
    let tbl = Qs_util.Table.create [ "metric"; "value" ] in
    Qs_util.Table.add_row tbl
      [ "real cadence/list Mops/s (sink off)";
        Printf.sprintf "%.2f" o.mops_sink_off ];
    Qs_util.Table.add_row tbl
      [ "real cadence/list Mops/s (sink on)";
        Printf.sprintf "%.2f" o.mops_sink_on ];
    Qs_util.Table.add_row tbl
      [ "events recorded (sink on runs)"; string_of_int o.events_on ];
    Qs_util.Table.print tbl;
    print_newline ()

  let dashboard () =
    Printf.printf "== reclamation observatory ==\n%!";
    cadence_age ();
    qsense_fallback ()
end

(* --- latency observatory ------------------------------------------------- *)

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
   - the overhead A/B the zero-cost claim rests on: real-runtime
     throughput with the recorder off vs on (the recorder's
     zero-allocation pin is test/test_latency.ml's). *)
module Latency_obs = struct
  include Sim_rows.Latency

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
    mops_off : float;
    mops_on : float;
    recorded_on : int;
  }

  let overhead_pct rep =
    if rep.mops_off <= 0. then 0.
    else 100. *. (1. -. (rep.mops_on /. rep.mops_off))

  let run ~quick =
    let lat_rows = rows ~quick in
    let mops_off, mops_on, recorded_on = throughput_ab ~quick in
    { lat_rows; mops_off; mops_on; recorded_on }

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
      [ "real cadence/list Mops/s (recorder off)";
        Printf.sprintf "%.2f" rep.mops_off ];
    Qs_util.Table.add_row ov
      [ "real cadence/list Mops/s (recorder on)";
        Printf.sprintf "%.2f" rep.mops_on ];
    Qs_util.Table.add_row ov
      [ "recorder overhead (%)"; Printf.sprintf "%.1f" (overhead_pct rep) ];
    Qs_util.Table.add_row ov
      [ "ops recorded (on runs)"; string_of_int rep.recorded_on ];
    Qs_util.Table.print ov;
    print_newline ()
end

(* --- KV service observatory ---------------------------------------------- *)

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
     handler churn across domain generations.

   The get path's and the put+del pair's zero-allocation pins are
   test/test_service.ml's. *)
module Service_obs = struct
  include Sim_rows.Service

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
  }

  let run ~quick =
    let svc_rows = rows ~quick in
    let real = real_row ~quick in
    { svc_rows; real }

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

(* --- JSON report (schema 12) ---------------------------------------------- *)

(* Consumed by [bench/trend.exe] (the bench gate, and the committed
   BENCH_HISTORY.jsonl) and by EXPERIMENTS.md readers, which lists what
   each schema number changed. "retire_scan" rows carry the production
   bag path's ns/retire. "e2e" holds one row per scheme (incumbents and
   rivals) × {list, hashtable} × domain count, every run with worker
   churn. "trace" is the real-domain sink off/on
   A/B. The "latency" section holds the recorder off/on A/B and one sim
   row per {scheme × structure × process count} plus the QSense stall
   row. The "service" section holds a real-domain churned-throughput row
   and one sim row per {scheme × key distribution} — requests,
   violations, churn events, leak check, per-op-kind p50/p99/p999 in
   virtual ticks, and the whole-run p999 spike attribution — plus the
   QSense stall row. The gate requires each stall row's attribution
   ≥ 80%. No section carries allocation pins: the test suite pins the
   same code paths. The "explorer" section is emitted as
   [null] here; [explore.exe profile --out out/BENCH_RESULTS.json] fills
   it in (the numbers belong to the explorer binary, which owns the
   representative case mix). *)
module Json = Qs_util.Json

let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let scheme k = str (Qs_smr.Scheme.to_string k)

let e2e_json (r : E2e.result) =
  Json.Obj
    [ ("ds", str (Qs_harness.Cset.kind_to_string r.ds)); ("scheme", scheme r.scheme);
      ("domains", int r.n_domains); ("throughput_mops", Json.Num r.throughput_mops);
      ("retired_peak", int r.retired_peak); ("reuse_ratio", Json.Num r.reuse_ratio);
      ("violations", int r.violations); ("failed", Json.Bool r.failed);
      ("churn_events", int r.churn_events) ]

let trace_json (t : Observatory.overhead) =
  Json.Obj
    [ ("real_mops_sink_off", Json.Num t.mops_sink_off);
      ("real_mops_sink_on", Json.Num t.mops_sink_on);
      ("events_recorded_sink_on", int t.events_on) ]

let latency_json (rep : Latency_obs.report) =
  Json.Obj
    [ ("real_mops_recorder_off", Json.Num rep.mops_off);
      ("real_mops_recorder_on", Json.Num rep.mops_on);
      ("overhead_pct", Json.Num (Latency_obs.overhead_pct rep));
      ("ops_recorded_on", int rep.recorded_on);
      ("rows", Json.Arr (List.map Latency_obs.row_json rep.lat_rows)) ]

let service_json (rep : Service_obs.report) =
  let rr = rep.real in
  Json.Obj
    [ ("real",
       Json.Obj
         [ ("scheme", scheme rr.r_scheme); ("domains", int rr.r_domains);
           ("ops", int rr.r_ops); ("throughput_mops", Json.Num rr.r_mops);
           ("violations", int rr.r_violations); ("failed", Json.Bool rr.r_failed);
           ("churn_events", int rr.r_churn) ]);
      ("rows", Json.Arr (List.map Service_obs.row_json rep.svc_rows)) ]

let emit_json ~path ~quick ~retire_scan ~e2e ~trace ~latency ~service =
  let retire_scan_row (r : Micro.result) =
    Json.Obj
      [ ("scenario", str (Micro.scenario_name r.scenario));
        ("limbo", int r.limbo);
        ("bag_ns_per_op", Json.Num r.bag_ns) ]
  in
  let doc =
    Json.Obj
      [ ("schema", int 12);
        ("explorer", Json.Null);
        ("quick", Json.Bool quick);
        ("n_processes", int Micro.n_processes);
        ("hp_per_process", int Micro.hp_per_process);
        ("retire_scan", Json.Arr (List.map retire_scan_row retire_scan));
        ("e2e", Json.Arr (List.map e2e_json e2e));
        ("trace", trace_json trace);
        ("latency", latency_json latency);
        ("service", service_json service) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n%!" path

let usage () =
  prerr_endline "usage: main.exe [--quick]";
  exit 2

let () =
  let quick =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--quick" ] -> true
    | _ -> usage ()
  in
  R.register_self 0;
  Printf.printf "== primitives (real x86 costs, best of rounds) ==\n%!";
  Primitives.run ~quick;
  Printf.printf
    "== per-op cost on one real domain (§7.3: fig3 + fig5 top row, no churn) ==\n%!";
  Per_op.print_table (Per_op.run ~quick);
  Printf.printf
    "== retire/scan microbenchmark (Cadence, 64-node bags, hash scan set) ==\n%!";
  let sizes = if quick then [ 100; 1_000; 10_000 ] else [ 100; 1_000; 10_000; 100_000 ] in
  let target_ops = if quick then 200_000 else 2_000_000 in
  let results = Micro.run ~sizes ~target_ops in
  Micro.print_table results;
  Printf.printf "== end-to-end sweep on real domains (%s, with worker churn) ==\n%!"
    (if quick then "quick" else "full");
  let e2e_results = E2e.run ~quick in
  E2e.print_table e2e_results;
  Observatory.dashboard ();
  Printf.printf "== tracing overhead (sink off vs on) ==\n%!";
  let trace_overhead = Observatory.overhead ~quick in
  Observatory.print_overhead trace_overhead;
  Printf.printf
    "== latency observatory: per-op histograms + p999 attribution ==\n%!";
  let latency_report = Latency_obs.run ~quick in
  Latency_obs.print_tables latency_report;
  Printf.printf
    "== KV service observatory: sharded store, open-loop traces ==\n%!";
  let service_report = Service_obs.run ~quick in
  Service_obs.print_tables service_report;
  emit_json ~path:(out_path "BENCH_RESULTS.json") ~quick ~retire_scan:results
    ~e2e:e2e_results ~trace:trace_overhead ~latency:latency_report
    ~service:service_report;
  (* The multi-core figures come from the simulator: *)
  print_endline "Scalability and robustness figures (multi-core) are produced by the";
  print_endline "deterministic simulator: `dune exec bin/repro.exe -- all [--scale full]`."
