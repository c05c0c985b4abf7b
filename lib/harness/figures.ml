(** Reproduction drivers for every figure in the paper's evaluation (§7),
    plus ablations over the design parameters. Each driver returns
    {!Qs_util.Table.t} rows matching the corresponding plot's series.

    Two scales are provided: [Full] uses the paper's data-structure sizes
    (list 2000, skip list 20000; the 2,000,000-key BST is scaled to 200,000
    — the simulator is an interpreter, and the BST curve's shape depends on
    depth, which scales logarithmically); [Quick] shrinks sizes further for
    fast runs. Core counts follow the paper: 1..32 (the simulator models one
    pinned worker per core, as the paper's testbed does). *)

open Qs_smr

type scale = Quick | Full

let core_counts = function
  | Quick -> [ 1; 2; 4; 8; 16; 32 ]
  | Full -> [ 1; 2; 4; 8; 16; 24; 32 ]

let list_range = function Quick -> 512 | Full -> 2_000
let skiplist_range = function Quick -> 4_096 | Full -> 20_000
let bst_range = function Quick -> 16_384 | Full -> 200_000
let hashtable_range = function Quick -> 4_096 | Full -> 20_000

let range_of scale = function
  | Cset.List -> list_range scale
  | Cset.Skiplist -> skiplist_range scale
  | Cset.Bst -> bst_range scale
  | Cset.Hashtable -> hashtable_range scale

(* Run long enough for every worker to complete a meaningful number of
   operations even on the slowest structure/scheme. *)
let duration_of scale ds =
  let base = match scale with Quick -> 200_000 | Full -> 600_000 in
  match ds with Cset.List -> base * 2 | _ -> base

let throughput_point ~scale ~seed ~ds ~scheme ~cores ~update_pct =
  let workload =
    Qs_workload.Spec.make ~key_range:(range_of scale ds) ~update_pct
  in
  let r =
    Sim_exp.run
      { (Sim_exp.default_setup ~ds ~scheme ~n_processes:cores ~workload) with
        seed;
        duration = duration_of scale ds }
  in
  if r.violations > 0 then
    failwith
      (Printf.sprintf "use-after-free during %s/%s benchmark!"
         (Cset.kind_to_string ds) (Scheme.to_string scheme));
  r

(* --- Figure 3 and Figure 5 (top row): scalability ------------------------ *)

let scalability ~scale ~seed ~ds ~schemes ~update_pct =
  let cores = core_counts scale in
  let tbl =
    Qs_util.Table.create
      ("scheme" :: List.map (fun c -> Printf.sprintf "%d cores" c) cores)
  in
  let results =
    List.map
      (fun scheme ->
        let points =
          List.map
            (fun c ->
              (throughput_point ~scale ~seed ~ds ~scheme ~cores:c ~update_pct)
                .throughput)
            cores
        in
        (scheme, points))
      schemes
  in
  List.iter
    (fun (scheme, points) ->
      Qs_util.Table.add_float_row tbl (Scheme.to_string scheme) points)
    results;
  (tbl, results)

let fig3 ~scale ~seed =
  scalability ~scale ~seed ~ds:Cset.List
    ~schemes:[ Scheme.None_; Scheme.Qsense; Scheme.Hp ]
    ~update_pct:10

let fig5_top ~scale ~seed ~ds =
  scalability ~scale ~seed ~ds
    ~schemes:[ Scheme.None_; Scheme.Qsbr; Scheme.Qsense; Scheme.Hp ]
    ~update_pct:50

(* --- Figure 5 (bottom row): throughput over time under periodic delays --- *)

(* One "simulated second" for the time axis: long enough that a 10-second
   delay window sees several times the fallback threshold C in retired
   nodes, as a 10-second stall does at the paper's (real-time) scale. The
   paper runs 100 s with one process delayed during [10,20), [30,40), ...,
   [90,100). *)
let sim_second = function Quick -> 20_000 | Full -> 100_000

(* fig5-bottom uses smaller structures than the scalability runs so that a
   delay window contains enough operations for the switching dynamics to
   play out (the ratio backlog-per-window / C is what matters, not the
   absolute structure size). *)
let robustness_range scale ds =
  match (scale, ds) with
  | Quick, Cset.List -> 128
  | Full, Cset.List -> 512
  | Quick, _ -> 512
  | Full, _ -> 2_048

let fig5_bottom ~scale ~seed ~ds =
  let n = 8 in
  let sim_second = sim_second scale in
  let seconds = match scale with Quick -> 60 | Full -> 100 in
  let duration = seconds * sim_second in
  let windows =
    List.filter
      (fun (a, _) -> a < duration)
      [ (10, 20); (30, 40); (50, 60); (70, 80); (90, 100) ]
    |> List.map (fun (a, b) -> (a * sim_second, b * sim_second))
  in
  let range = robustness_range scale ds in
  let workload = Qs_workload.Spec.make ~key_range:range ~update_pct:50 in
  (* The cap models bounded memory: meant to be ample for the robust
     schemes' bounded backlog, fatal for QSBR once quiescence stops for a
     whole window. At the fallback flip up to ~N*C retired nodes can
     exist, and the quick slack does not cover that: 150 < 8 * 24 = 192
     (full: 180 > 8 * 12 = 96). QSense survives the quick runs by
     measurement, not by that bound: on the skip list every slack from
     135 to 150 (out of memory at 134), a margin of 15 nodes; on the list
     from 148 (out of memory at 147), a margin of 2. A per-run bound is
     ROADMAP item 1(b). *)
  let switch_c, slack = match scale with Quick -> (24, 150) | Full -> (12, 180) in
  let live = range / 2 * Cset.nodes_per_key_of ds in
  let capacity = Some (live + slack) in
  let run scheme =
    Sim_exp.run
      { (Sim_exp.default_setup ~ds ~scheme ~n_processes:n ~workload) with
        seed;
        duration;
        capacity;
        delays = Some { victim = n - 1; windows };
        sample_every = sim_second;
        smr_tweak =
          (fun c ->
            { c with
              quiescence_threshold = 8;
              scan_threshold = 8;
              switch_threshold = switch_c }) }
  in
  let schemes = [ Scheme.Qsbr; Scheme.Qsense; Scheme.Hp ] in
  let results = List.map (fun s -> (s, run s)) schemes in
  let tbl =
    Qs_util.Table.create
      ("second" :: List.map (fun s -> Scheme.to_string s) schemes)
  in
  for sec = 0 to seconds - 1 do
    Qs_util.Table.add_row tbl
      (string_of_int sec
      :: List.map
           (fun (_, (r : Sim_exp.result)) ->
             if Array.length r.series > sec then
               Printf.sprintf "%.1f" r.series.(sec)
             else "0.0")
           results)
  done;
  (tbl, results)

(* --- §7.3 overhead summary (the numbers quoted in the text) -------------- *)

let overheads ~scale ~seed =
  let dss = [ Cset.List; Cset.Skiplist; Cset.Bst ] in
  let schemes = [ Scheme.Qsbr; Scheme.Qsense; Scheme.Cadence; Scheme.Hp ] in
  let cores = 8 in
  let tbl =
    Qs_util.Table.create
      ("scheme"
      :: (List.map Cset.kind_to_string dss
         @ [ "avg overhead vs none (%)"; "speedup vs hp" ]))
  in
  let baseline =
    List.map
      (fun ds ->
        ( ds,
          (throughput_point ~scale ~seed ~ds ~scheme:Scheme.None_ ~cores
             ~update_pct:50)
            .throughput ))
      dss
  in
  let tputs =
    List.map
      (fun scheme ->
        ( scheme,
          List.map
            (fun ds ->
              (throughput_point ~scale ~seed ~ds ~scheme ~cores ~update_pct:50)
                .throughput)
            dss ))
      schemes
  in
  let hp_tputs = List.assoc Scheme.Hp tputs in
  List.iter
    (fun (scheme, ts) ->
      let overheads_pct =
        List.map2
          (fun (_, base) t -> Qs_util.Stats.overhead_pct ~baseline:base t)
          baseline ts
      in
      let avg = Qs_util.Stats.mean (Array.of_list overheads_pct) in
      let speedup =
        Qs_util.Stats.mean
          (Array.of_list
             (List.map2 (fun t hp -> Qs_util.Stats.ratio t hp) ts hp_tputs))
      in
      Qs_util.Table.add_row tbl
        (Scheme.to_string scheme
        :: (List.map (Printf.sprintf "%.3f") ts
           @ [ Printf.sprintf "%.1f" avg; Printf.sprintf "%.2fx" speedup ])))
    tputs;
  (tbl, baseline, tputs)

(* --- ablations over the design parameters (§5) --------------------------- *)

(* Rooster interval T: larger T means fewer context switches (faster) but a
   longer deferral and hence more retired nodes held. *)
let ablation_rooster ~seed =
  let tbl =
    Qs_util.Table.create [ "T (ticks)"; "throughput"; "retired peak"; "frees" ]
  in
  List.iter
    (fun t ->
      let workload = Qs_workload.Spec.make ~key_range:256 ~update_pct:50 in
      let r =
        Sim_exp.run
          { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Scheme.Cadence
               ~n_processes:8 ~workload) with
            seed;
            duration = 800_000;
            smr_tweak = (fun c -> { c with rooster_interval = t; scan_threshold = 8 }) }
      in
      Qs_util.Table.add_row tbl
        [ string_of_int t;
          Printf.sprintf "%.1f" r.throughput;
          string_of_int r.report.smr.retired_peak;
          string_of_int r.report.smr.frees
        ])
    [ 500; 1_000; 2_000; 4_000; 8_000; 16_000 ];
  tbl

(* Quiescence threshold Q: batching amortises QSBR's per-quiescence cost. *)
let ablation_quiescence ~seed =
  let tbl =
    Qs_util.Table.create [ "Q (ops)"; "throughput"; "epoch advances"; "retired peak" ]
  in
  List.iter
    (fun q ->
      let workload = Qs_workload.Spec.make ~key_range:512 ~update_pct:50 in
      let r =
        Sim_exp.run
          { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Scheme.Qsbr
               ~n_processes:8 ~workload) with
            seed;
            duration = 400_000;
            smr_tweak = (fun c -> { c with quiescence_threshold = q }) }
      in
      Qs_util.Table.add_row tbl
        [ string_of_int q;
          Printf.sprintf "%.1f" r.throughput;
          string_of_int r.report.smr.epoch_advances;
          string_of_int r.report.smr.retired_peak
        ])
    [ 1; 4; 16; 64; 256 ];
  tbl

(* Switch threshold C: small C = hair-trigger fallback (spurious switches),
   huge C = more memory held before reacting to a delay. *)
let ablation_switch_threshold ~seed =
  let tbl =
    Qs_util.Table.create
      [ "C"; "throughput"; "fallback switches"; "retired peak" ]
  in
  List.iter
    (fun c_thr ->
      let workload = Qs_workload.Spec.make ~key_range:256 ~update_pct:50 in
      let r =
        Sim_exp.run
          { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Scheme.Qsense
               ~n_processes:8 ~workload) with
            seed;
            duration = 600_000;
            delays =
              Some
                { victim = 7;
                  windows = [ (100_000, 250_000); (400_000, 550_000) ] };
            smr_tweak =
              (fun c -> { c with switch_threshold = c_thr; scan_threshold = 8 }) }
      in
      Qs_util.Table.add_row tbl
        [ string_of_int c_thr;
          Printf.sprintf "%.1f" r.throughput;
          string_of_int r.report.smr.fallback_entries;
          string_of_int r.report.smr.retired_peak
        ])
    [ 8; 32; 128; 1_024 ];
  tbl

(* Epsilon vs rooster timing inconsistency: Cadence's deferral is safe only
   while eps covers how late a rooster can be ("oversleeping", the first of
   §5.1's timing inconsistencies). Constant cross-core clock OFFSETS cancel
   in the age computation — a node is timestamped and scanned by the same
   process — so late wake-ups are what consume eps in this model. Reports
   use-after-free oracle hits per configuration: the middle row (huge
   oversleep, eps = 0) is the broken one. *)
let ablation_epsilon ~seed =
  let tbl =
    Qs_util.Table.create [ "max oversleep"; "epsilon"; "violations (16 seeds)" ]
  in
  let run ~oversleep ~eps seed =
    let workload = Qs_workload.Spec.make ~key_range:16 ~update_pct:30 in
    let r =
      Sim_exp.run
        { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Scheme.Cadence
             ~n_processes:4 ~workload) with
          seed;
          duration = 1_500_000;
          smr_tweak =
            (fun c ->
              { c with
                scan_threshold = 1; (* scan every retire: epsilon sensitivity needs it *)
                rooster_interval = 200;
                epsilon = eps });
          sched_tweak =
            (fun c ->
              { c with
                rooster_oversleep = oversleep;
                store_buffer_capacity = 100_000;
                cost =
                  { Qs_sim.Scheduler.default_cost with
                    stall_prob = 0.02;
                    stall_max = 6_000 } }) }
    in
    r.violations
  in
  List.iter
    (fun (oversleep, eps) ->
      let v =
        List.fold_left
          (fun acc s -> acc + run ~oversleep ~eps (seed + s))
          0
          (List.init 16 Fun.id)
      in
      Qs_util.Table.add_row tbl
        [ string_of_int oversleep; string_of_int eps; string_of_int v ])
    [ (50, 400); (8_000, 0); (8_000, 8_400) ];
  tbl

(* --- per-operation latency distribution (extra analysis) ----------------- *)

(* Throughput hides where the reclamation cost sits: hazard pointers tax
   every traversal step (high median), epoch/limbo schemes batch work at
   quiescence/scan points (latency spikes at the tail). The deterministic
   simulator makes the comparison exact. *)
let latency_table ~seed =
  let tbl =
    Qs_util.Table.create
      [ "scheme"; "ops"; "mean"; "p50"; "p95"; "p99"; "max" ]
  in
  List.iter
    (fun scheme ->
      let workload = Qs_workload.Spec.make ~key_range:512 ~update_pct:50 in
      let rec_ =
        Qs_obs.Latency.recorder ~n_processes:8
          ~n_kinds:Qs_workload.Spec.n_kinds ()
      in
      ignore
        (Sim_exp.run
           { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:8
                ~workload) with
             seed;
             duration = 400_000;
             latency = Some rec_ });
      let h = Qs_obs.Latency.merged rec_ in
      let n = Qs_obs.Latency.count h in
      if n = 0 then
        Qs_util.Table.add_row tbl
          [ Scheme.to_string scheme; "0"; "-"; "-"; "-"; "-"; "-" ]
      else begin
        let p q = string_of_int (Qs_obs.Latency.percentile h q) in
        Qs_util.Table.add_row tbl
          [ Scheme.to_string scheme;
            string_of_int n;
            Printf.sprintf "%.0f"
              (float_of_int (Qs_obs.Latency.sum h) /. float_of_int n);
            p 50.;
            p 95.;
            p 99.;
            string_of_int (Qs_obs.Latency.max_value h) ]
      end)
    [ Scheme.None_; Scheme.Qsbr; Scheme.Ebr; Scheme.Qsense; Scheme.Cadence; Scheme.Hp ];
  tbl

(* --- update-mix ablation (§3.2's claim) ----------------------------------- *)

(* "Memory barriers ... cost results in a significant performance overhead
   for hazard pointer implementations, especially in read-only data
   structure operations (update operations typically use other expensive
   synchronization primitives ..., so the marginal cost of memory barriers
   ... is much lower than for read-only operations)." — §3.2. Measured: HP's
   overhead vs the leaky baseline should be highest at 0% updates and
   shrink as the update share grows. *)
let ablation_update_mix ~seed =
  let tbl =
    Qs_util.Table.create
      [ "structure"; "updates (%)"; "none"; "hp"; "qsense";
        "hp overhead (%)"; "qsense overhead (%)" ]
  in
  List.iter
    (fun (ds, range) ->
      List.iter
        (fun update_pct ->
          let tput scheme =
            let workload = Qs_workload.Spec.make ~key_range:range ~update_pct in
            (Sim_exp.run
               { (Sim_exp.default_setup ~ds ~scheme ~n_processes:8 ~workload) with
                 seed;
                 duration = 300_000 })
              .throughput
          in
          let none = tput Scheme.None_ in
          let hp = tput Scheme.Hp in
          let qsense = tput Scheme.Qsense in
          Qs_util.Table.add_row tbl
            [ Cset.kind_to_string ds;
              string_of_int update_pct;
              Printf.sprintf "%.1f" none;
              Printf.sprintf "%.1f" hp;
              Printf.sprintf "%.1f" qsense;
              Printf.sprintf "%.1f" (Qs_util.Stats.overhead_pct ~baseline:none hp);
              Printf.sprintf "%.1f" (Qs_util.Stats.overhead_pct ~baseline:none qsense)
            ])
        [ 0; 25; 50; 100 ])
    (* a traversal-dominated structure (every op pays the per-node fence
       tax, so the overhead is flat across mixes) and a short-traversal one
       (update synchronisation amortises the fences, so the tax shrinks as
       updates grow — §3.2's effect) *)
    [ (Cset.List, 512); (Cset.Hashtable, 2_048) ];
  tbl

(* --- the whole evaluation, section by section --------------------------- *)

let sparklines results =
  String.concat ""
    (List.map
       (fun (scheme, (r : Sim_exp.result)) ->
         Printf.sprintf "%-8s %s%s\n" (Scheme.to_string scheme)
           (Qs_util.Table.sparkline r.series)
           (match r.failed_at with
           | Some t ->
             (* workers stop at the failure, so the report is the state
                that filled memory: live nodes versus the reclamation
                backlog *)
             let retired = r.report.smr.retired_now in
             Printf.sprintf "   (OUT OF MEMORY at t=%d: %d live + %d retired)" t
               (r.report.outstanding - retired) retired
           | None -> ""))
       results)

let all ~scale ~seed =
  let table = Qs_util.Table.to_ascii in
  let structures = [ Cset.List; Cset.Skiplist; Cset.Bst ] in
  [ ("Figure 3", fun () -> table (fst (fig3 ~scale ~seed))) ]
  @ List.map
      (fun ds ->
        ( Printf.sprintf "Figure 5 top (%s)" (Cset.kind_to_string ds),
          fun () -> table (fst (fig5_top ~scale ~seed ~ds)) ))
      structures
  @ List.map
      (fun ds ->
        ( Printf.sprintf "Figure 5 bottom (%s)" (Cset.kind_to_string ds),
          fun () ->
            let tbl, results = fig5_bottom ~scale ~seed ~ds in
            table tbl ^ "\n" ^ sparklines results ))
      structures
  @ [ ( "Overheads (§7.3)",
        fun () ->
          let tbl, _, _ = overheads ~scale ~seed in
          table tbl );
      ("Ablation T", fun () -> table (ablation_rooster ~seed));
      ("Ablation Q", fun () -> table (ablation_quiescence ~seed));
      ("Ablation C", fun () -> table (ablation_switch_threshold ~seed));
      ("Ablation epsilon", fun () -> table (ablation_epsilon ~seed));
      ("Ablation update mix", fun () -> table (ablation_update_mix ~seed));
      ("Latency distribution", fun () -> table (latency_table ~seed)) ]
