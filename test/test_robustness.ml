(* Robustness under prolonged process delays (the paper's §7.2 second goal)
   and the liveness bounds of §6, driven through the simulator harness:

   - QSBR with a stalled process exhausts memory and fails; the leaky
     baseline exhausts memory even without delays;
   - QSense under the same stall switches to the Cadence fallback, stays
     within bounded memory, and switches back when the victim recovers;
   - HP and stand-alone Cadence tolerate the stall by construction;
   - the eviction extension returns QSense to the fast path even when the
     victim never recovers;
   - Cadence's retired-node bound (Property 2) and QSense's 2NC bound
     (Property 4) hold across runs;
   - a run without roosters breaks Cadence, and so does rooster oversleep
     beyond its epsilon: its deferral argument really does depend on
     them. *)

open Qs_harness
module Spec = Qs_workload.Spec

let workload = Spec.updates_50 ~key_range:64

let base ~scheme =
  { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:4 ~workload) with
    duration = 800_000;
    seed = 5;
    smr_tweak =
      (fun c ->
        { c with
          quiescence_threshold = 16;
          scan_threshold = 16;
          switch_threshold = 48 }) }

(* One process stalls from t=50k to the end of the run. *)
let stall = Some { Sim_exp.victim = 3; windows = [ (50_000, 10_000_000) ] }

(* Generous cap: plenty for normal operation (live ~32 nodes, and robust
   schemes keep at most a few hundred retired), far too little for an
   unbounded retired backlog. *)
let cap = Some 300

(* [Sim_exp.run setup] with its operation history recorded, which must be
   linearizable: the long QSense runs cross fast -> fallback -> fast. *)
let run_lin_checked (setup : Sim_exp.setup) =
  let history = Qs_verify.History.create ~n:setup.n_processes in
  let r = Sim_exp.run { setup with history = Some history } in
  (match
     Qs_verify.Lin_check.check_set ~initial:(Spec.initial_keys workload)
       (Qs_verify.History.entries history)
   with
  | Ok -> ()
  | Violation k -> Alcotest.failf "key %d not linearizable" k);
  r

let test_qsbr_oom_under_delay () =
  let r = Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Qsbr) with delays = stall; capacity = cap } in
  (match r.failed_at with
  | Some t -> Alcotest.(check bool) "failed after the stall began" true (t >= 50_000)
  | None -> Alcotest.fail "QSBR should run out of memory under a stalled process");
  Alcotest.(check int) "no use-after-free" 0 r.violations

let test_qsbr_fine_without_delay () =
  let r = Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Qsbr) with capacity = cap } in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "epochs advanced" true (r.report.smr.epoch_advances > 0);
  Alcotest.(check bool) "memory reclaimed" true (r.report.smr.frees > 0)

let test_leaky_oom_even_without_delay () =
  let r = Sim_exp.run { (base ~scheme:Qs_smr.Scheme.None_) with capacity = cap } in
  match r.failed_at with
  | Some _ -> ()
  | None -> Alcotest.fail "the leaky baseline should exhaust a bounded arena"

let test_qsense_survives_stall () =
  let r =
    Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Qsense) with delays = stall; capacity = cap }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "switched to fallback" true
    (r.report.smr.fallback_entries >= 1);
  Alcotest.(check bool) "ends in fallback mode (victim still stalled)" true
    (r.report.smr.mode = Qs_smr.Smr_intf.Fallback);
  Alcotest.(check bool) "kept reclaiming in fallback" true (r.report.smr.frees > 0)

let test_qsense_recovers () =
  (* victim stalls during [50k, 500k); the run continues to 1M *)
  let r =
    run_lin_checked
      { (base ~scheme:Qs_smr.Scheme.Qsense) with
        duration = 1_000_000;
        delays = Some { victim = 3; windows = [ (50_000, 500_000) ] };
        capacity = cap }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check bool) "fell back" true (r.report.smr.fallback_entries >= 1);
  Alcotest.(check bool) "switched back to the fast path" true
    (r.report.smr.fallback_exits >= 1);
  Alcotest.(check bool) "ends on the fast path" true
    (r.report.smr.mode = Qs_smr.Smr_intf.Fast)

(* EBR's stalls are injected at operation boundaries (the victim is
   unpinned), so unlike QSBR it keeps reclaiming — the in-between baseline. *)
let test_ebr_survives_between_op_stall () =
  let r =
    Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Ebr) with delays = stall; capacity = cap }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "kept reclaiming" true (r.report.smr.frees > 0)

let test_hp_survives_stall () =
  let r =
    Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Hp) with delays = stall; capacity = cap }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations

let test_cadence_survives_stall () =
  let r =
    Sim_exp.run
      { (base ~scheme:Qs_smr.Scheme.Cadence) with delays = stall; capacity = cap }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "reclaimed" true (r.report.smr.frees > 0)

let test_eviction_restores_fast_path () =
  let r =
    Sim_exp.run
      { (base ~scheme:Qs_smr.Scheme.Qsense) with
        delays = stall;
        capacity = cap;
        smr_tweak =
          (fun c ->
            { c with
              quiescence_threshold = 16;
              scan_threshold = 16;
              switch_threshold = 48;
              eviction_timeout = Some 30_000 }) }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "victim evicted" true (r.report.smr.evictions >= 1);
  Alcotest.(check bool) "back on the fast path despite the dead process" true
    (r.report.smr.mode = Qs_smr.Smr_intf.Fast)

(* The evicted victim eventually WAKES, rejoins, and keeps operating safely
   (the rejoin guard keeps its first epoch cycle conservative). *)
let test_eviction_then_rejoin () =
  let r =
    run_lin_checked
      { (base ~scheme:Qs_smr.Scheme.Qsense) with
        duration = 1_200_000;
        delays = Some { victim = 3; windows = [ (50_000, 600_000) ] };
        capacity = cap;
        smr_tweak =
          (fun c ->
            { c with
              quiescence_threshold = 16;
              scan_threshold = 16;
              switch_threshold = 48;
              eviction_timeout = Some 30_000 }) }
  in
  Alcotest.(check (option int)) "no failure" None r.failed_at;
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "victim was evicted" true (r.report.smr.evictions >= 1);
  Alcotest.(check bool) "victim worked after rejoining" true
    (r.per_worker_ops.(3) > 50);
  Alcotest.(check bool) "system healthy at the end (fast path)" true
    (r.report.smr.mode = Qs_smr.Smr_intf.Fast);
  (match r.leak_check with
  | `Ok -> ()
  | `Leaked n -> Alcotest.failf "leaked %d nodes" n
  | `Skipped -> ())

(* --- liveness bounds (§6) ----------------------------------------------- *)

(* Property 2: with Cadence, retired nodes are bounded by N(K + T' + R)
   where T' is the number of nodes that can be removed within T+eps — far
   fewer than T ticks' worth here, so the tick-based bound is generous but
   finite, unlike QSBR's. *)
let test_cadence_retired_bound () =
  List.iter
    (fun seed ->
      let setup = { (base ~scheme:Qs_smr.Scheme.Cadence) with seed; delays = stall } in
      let r = Sim_exp.run setup in
      (* the config the run used: N, K, R, T and epsilon all come from it *)
      let cfg =
        setup.smr_tweak (Sim_exp.base_smr_config ~n_processes:setup.n_processes)
      in
      let n = cfg.n_processes and k = cfg.hp_per_process in
      let bound =
        n * (k + cfg.rooster_interval + cfg.epsilon + cfg.scan_threshold)
      in
      Alcotest.(check bool)
        (Printf.sprintf "retired peak %d within bound %d (seed %d)"
           r.report.smr.retired_peak bound seed)
        true
        (r.report.smr.retired_peak <= bound))
    [ 1; 2; 3 ]

(* Property 4: with a legal C, QSense keeps at most 2NC retired nodes even
   under a permanent stall. *)
let test_qsense_2nc_bound () =
  List.iter
    (fun seed ->
      let smr_tweak c =
        { c with
          Qs_smr.Smr_intf.quiescence_threshold = 16;
          scan_threshold = 16;
          rooster_interval = 1_000;
          epsilon = 200;
          switch_threshold = 0 (* auto: smallest legal value *) }
      in
      let cfg = smr_tweak (Sim_exp.base_smr_config ~n_processes:4) in
      let legal_c = Qs_smr.Smr_intf.legal_switch_threshold cfg in
      let r =
        Sim_exp.run
          { (base ~scheme:Qs_smr.Scheme.Qsense) with
            seed;
            delays = stall;
            duration = 600_000;
            smr_tweak }
      in
      let bound = 2 * 4 * legal_c in
      Alcotest.(check bool)
        (Printf.sprintf "retired peak %d within 2NC = %d (seed %d)"
           r.report.smr.retired_peak bound seed)
        true
        (r.report.smr.retired_peak <= bound))
    [ 1; 2; 3 ]

(* QSBR's retired count under a stall is NOT bounded: it ends far above
   what any of the robust schemes accumulate. *)
let test_qsbr_unbounded_growth () =
  let r = Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Qsbr) with delays = stall } in
  let r' = Sim_exp.run { (base ~scheme:Qs_smr.Scheme.Qsense) with delays = stall } in
  Alcotest.(check bool)
    (Printf.sprintf "QSBR backlog (%d) dwarfs QSense's (%d)"
       r.report.smr.retired_now r'.report.smr.retired_now)
    true
    (r.report.smr.retired_now > 4 * r'.report.smr.retired_now)

(* --- the §4.1 naive hybrid is unsafe at switch time ----------------------- *)

(* Periodic delays force fast<->fallback switches; with hazard pointers only
   published in fallback mode, references acquired on the fast path are
   unprotected when the first post-switch scan runs. *)
let naive_hybrid_run ~scheme ~seed =
  Sim_exp.run
    { (base ~scheme) with
      seed;
      duration = 1_500_000;
      target =
        Target.Set
          { ds = Cset.List;
            workload = Spec.make ~key_range:8 ~update_pct:40 };
      delays =
        Some
          { victim = 3;
            windows =
              [ (50_000, 250_000); (450_000, 650_000); (850_000, 1_050_000);
                (1_250_000, 1_450_000) ] };
      smr_tweak =
        (fun c ->
          { c with
            quiescence_threshold = 4;
            scan_threshold = 1; (* scan every fallback retire: maximise switch-window exposure *)
            (* short deferral so fast-path references outlive it *)
            rooster_interval = 500;
            epsilon = 100;
            switch_threshold = 8 });
      sched_tweak =
        (fun c ->
          { c with
            rooster_interval = Some 500;
            rooster_oversleep = 0;
            cost =
              { Qs_sim.Scheduler.default_cost with
                stall_prob = 0.004;
                stall_max = 15_000 } }) }

let test_naive_hybrid_unsafe () =
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let v =
    List.fold_left
      (fun acc seed -> acc + (naive_hybrid_run ~scheme:Qs_smr.Scheme.Naive_hybrid ~seed).violations)
      0 seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf "naive hybrid use-after-free at switch time (%d found)" v)
    true (v > 0);
  (* control: real QSense on the identical adversarial workload is safe *)
  let control =
    List.fold_left
      (fun acc seed -> acc + (naive_hybrid_run ~scheme:Qs_smr.Scheme.Qsense ~seed).violations)
      0 seeds
  in
  Alcotest.(check int) "qsense safe on the same workload" 0 control

(* --- fault injection: roosters are load-bearing for Cadence -------------- *)

let dead_rooster_run ~seed ~kill =
  Sim_exp.run
    { (base ~scheme:Qs_smr.Scheme.Cadence) with
      seed;
      duration = 1_000_000;
      target =
        Target.Set
          { ds = Cset.List;
            workload = Spec.make ~key_range:16 ~update_pct:20 };
      smr_tweak =
        (fun c ->
          { c with
            quiescence_threshold = 4;
            scan_threshold = 1; (* scan every retire: tightest exposure to dead roosters *)
            rooster_interval = 500;
            epsilon = 50 });
      sched_tweak =
        (fun c ->
          { c with
            (* dead roosters: the scheme still assumes T = 500, but no
               wake-up ever flushes a store buffer *)
            rooster_interval = (if kill then None else Some 500);
            (* big store buffers + long stalls: without rooster flushes, a
               reader's unfenced hazard pointer can stay invisible well past
               the deferral window *)
            store_buffer_capacity = 100_000;
            cost =
              { Qs_sim.Scheduler.default_cost with
                stall_prob = 0.005;
                stall_max = 3_000 } }) }

let test_dead_roosters_break_cadence () =
  let seeds = [ 1; 2; 3; 4 ] in
  let total =
    List.fold_left (fun acc seed -> acc + (dead_rooster_run ~seed ~kill:true).violations) 0 seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf "use-after-free once roosters die (%d found)" total)
    true (total > 0);
  (* control: the identical adversarial setting with live roosters is safe *)
  let control =
    List.fold_left (fun acc seed -> acc + (dead_rooster_run ~seed ~kill:false).violations) 0 seeds
  in
  Alcotest.(check int) "live roosters keep cadence safe" 0 control

(* --- fault injection: oversleep beyond epsilon breaks the deferral ------- *)

(* Cadence frees a node once it is [T + eps] old, on the assumption that
   every rooster wake-up lands within [eps] of its deadline. A
   scheduler-side oversleep bound beyond the [eps] the SMR config assumes
   means hazard-pointer stores can stay buffered past the deferral
   window. *)
let oversleep_run ~seed ~oversleep ~smr_epsilon =
  Sim_exp.run
    { (base ~scheme:Qs_smr.Scheme.Cadence) with
      seed;
      duration = 1_000_000;
      target =
        Target.Set
          { ds = Cset.List;
            workload = Spec.make ~key_range:16 ~update_pct:20 };
      smr_tweak =
        (fun c ->
          { c with
            quiescence_threshold = 4;
            scan_threshold = 1;
            rooster_interval = 500;
            epsilon = smr_epsilon });
      sched_tweak =
        (fun c ->
          { c with
            rooster_interval = Some 500;
            (* each wake-up lands up to [oversleep] ticks late *)
            rooster_oversleep = oversleep;
            store_buffer_capacity = 100_000;
            cost =
              { Qs_sim.Scheduler.default_cost with
                stall_prob = 0.005;
                stall_max = 3_000 } }) }

let test_oversleep_beyond_epsilon_breaks_cadence () =
  let seeds = [ 1; 2; 3; 4 ] in
  (* roosters oversleep up to 10k ticks; the SMR config still assumes
     eps = 50 *)
  let total =
    List.fold_left
      (fun acc seed ->
        acc + (oversleep_run ~seed ~oversleep:10_000 ~smr_epsilon:50).violations)
      0 seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf "use-after-free when oversleep exceeds epsilon (%d found)" total)
    true (total > 0);
  (* control: budgeting the oversleep into epsilon restores safety *)
  let control =
    List.fold_left
      (fun acc seed ->
        acc
        + (oversleep_run ~seed ~oversleep:10_000 ~smr_epsilon:11_000).violations)
      0 seeds
  in
  Alcotest.(check int) "epsilon >= oversleep keeps cadence safe" 0 control

(* --- Figure 5 bottom at quick scale (§7.2) ---------------------------- *)

(* The paper's claim on each structure: under bounded memory and one
   process delayed in alternating windows, QSBR runs out of memory in the
   first window while QSense and HP survive the whole run. The first
   window is quick-scale seconds [10, 20) of 20,000 ticks each. *)
let test_fig5_bottom_quick () =
  let first_window = (10 * 20_000, 20 * 20_000) in
  List.iter
    (fun ds ->
      let name = Cset.kind_to_string ds in
      let _, results = Figures.fig5_bottom ~scale:Quick ~seed:1 ~ds in
      let failed_at s = (List.assoc s results : Sim_exp.result).failed_at in
      (match failed_at Qs_smr.Scheme.Qsbr with
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: qsbr OOM at t=%d is in the first window" name t)
          true
          (fst first_window <= t && t < snd first_window)
      | None -> Alcotest.failf "%s: qsbr should run out of memory" name);
      Alcotest.(check (option int)) (name ^ ": qsense survives") None
        (failed_at Qs_smr.Scheme.Qsense);
      Alcotest.(check (option int)) (name ^ ": hp survives") None
        (failed_at Qs_smr.Scheme.Hp))
    [ Cset.List; Cset.Skiplist; Cset.Bst ]

let suite =
  [ Alcotest.test_case "qsbr OOMs under a stalled process" `Quick test_qsbr_oom_under_delay;
    Alcotest.test_case "qsbr fine without delays" `Quick test_qsbr_fine_without_delay;
    Alcotest.test_case "leaky baseline OOMs" `Quick test_leaky_oom_even_without_delay;
    Alcotest.test_case "qsense survives a stall" `Quick test_qsense_survives_stall;
    Alcotest.test_case "qsense recovers after the stall" `Quick test_qsense_recovers;
    Alcotest.test_case "ebr survives between-op stalls" `Quick test_ebr_survives_between_op_stall;
    Alcotest.test_case "hp survives a stall" `Quick test_hp_survives_stall;
    Alcotest.test_case "cadence survives a stall" `Quick test_cadence_survives_stall;
    Alcotest.test_case "eviction restores the fast path" `Quick test_eviction_restores_fast_path;
    Alcotest.test_case "evicted process rejoins safely" `Quick test_eviction_then_rejoin;
    Alcotest.test_case "cadence retired-node bound (Property 2)" `Quick test_cadence_retired_bound;
    Alcotest.test_case "qsense 2NC bound (Property 4)" `Quick test_qsense_2nc_bound;
    Alcotest.test_case "qsbr backlog is unbounded" `Quick test_qsbr_unbounded_growth;
    Alcotest.test_case "naive hybrid unsafe at switch (§4.1)" `Quick test_naive_hybrid_unsafe;
    Alcotest.test_case "dead roosters break cadence" `Quick test_dead_roosters_break_cadence;
    Alcotest.test_case "oversleep beyond epsilon breaks cadence" `Quick
      test_oversleep_beyond_epsilon_breaks_cadence;
    Alcotest.test_case "fig5 bottom (quick): qsbr OOMs, qsense and hp survive"
      `Quick test_fig5_bottom_quick
  ]
