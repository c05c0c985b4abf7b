(* Command-line driver regenerating every figure of the paper's evaluation
   (§7) on the deterministic multicore simulator, plus the ablations called
   out in DESIGN.md. See EXPERIMENTS.md for the mapping and for recorded
   paper-vs-measured results.

     repro fig3                 Figure 3  (list, 10% updates, None/QSense/HP)
     repro fig5-top --ds list   Figure 5 top row (scalability, 50% updates)
     repro fig5-bottom --ds bst Figure 5 bottom row (delays over time)
     repro overheads            §7.3 overhead summary
     repro ablation --which T   parameter ablations
     repro all                  everything above *)

open Cmdliner
module F = Qs_harness.Figures
module Cset = Qs_harness.Cset

let scale_arg =
  let scale_conv = Arg.enum [ ("quick", F.Quick); ("full", F.Full) ] in
  Arg.(
    value
    & opt scale_conv F.Quick
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Experiment scale: 'quick' (scaled-down sizes, fast) or 'full' \
           (paper-sized structures; minutes of runtime).")

let seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master seed; every run is deterministic given the seed.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV to $(docv).")

let ds_arg =
  let ds_conv =
    Arg.enum
      [ ("list", Cset.List);
        ("skiplist", Cset.Skiplist);
        ("bst", Cset.Bst);
        ("hashtable", Cset.Hashtable)
      ]
  in
  Arg.(
    value
    & opt ds_conv Cset.List
    & info [ "ds" ] ~docv:"DS"
        ~doc:"Data structure: list, skiplist, bst or hashtable.")

let emit ?csv title tbl =
  Printf.printf "== %s ==\n%!" title;
  Qs_util.Table.print tbl;
  print_newline ();
  match csv with
  | Some path ->
    Qs_util.Table.save_csv tbl path;
    Printf.printf "(csv written to %s)\n%!" path
  | None -> ()

let sparklines_of_series results =
  List.iter
    (fun (scheme, (r : Qs_harness.Sim_exp.result)) ->
      Printf.printf "%-8s %s%s\n"
        (Qs_smr.Scheme.to_string scheme)
        (Qs_util.Table.sparkline r.series)
        (match r.failed_at with
        | Some t ->
          (* workers stop at the failure, so the report is the state that
             filled memory: live nodes versus the reclamation backlog *)
          let retired = r.report.smr.retired_now in
          Printf.sprintf "   (OUT OF MEMORY at t=%d: %d live + %d retired)" t
            (r.report.outstanding - retired) retired
        | None -> ""))
    results;
  print_newline ()

let fig3_cmd =
  let run scale seed csv =
    let tbl, _ = F.fig3 ~scale ~seed in
    emit ?csv "Figure 3: linked list, 10% updates (throughput, ops/Mtick)" tbl
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3.")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg)

let fig5_top_cmd =
  let run scale seed csv ds =
    let tbl, _ = F.fig5_top ~scale ~seed ~ds in
    emit ?csv
      (Printf.sprintf
         "Figure 5 (top, %s): 50%% updates, throughput vs cores (ops/Mtick)"
         (Cset.kind_to_string ds))
      tbl
  in
  Cmd.v
    (Cmd.info "fig5-top" ~doc:"Reproduce Figure 5, top row.")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg $ ds_arg)

let fig5_bottom_cmd =
  let run scale seed csv ds =
    let tbl, results = F.fig5_bottom ~scale ~seed ~ds in
    emit ?csv
      (Printf.sprintf
         "Figure 5 (bottom, %s): 8 processes, one delayed in alternating 10s \
          windows; throughput over time (ops/Mtick)"
         (Cset.kind_to_string ds))
      tbl;
    sparklines_of_series results
  in
  Cmd.v
    (Cmd.info "fig5-bottom" ~doc:"Reproduce Figure 5, bottom row.")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg $ ds_arg)

let overheads_cmd =
  let run scale seed csv =
    let tbl, _, _ = F.overheads ~scale ~seed in
    emit ?csv
      "Overheads (§7.3): throughput at 8 cores, 50% updates; overhead vs \
       leaky; speedup vs HP"
      tbl
  in
  Cmd.v
    (Cmd.info "overheads" ~doc:"Reproduce the §7.3 overhead summary.")
    Term.(const run $ scale_arg $ seed_arg $ csv_arg)

let ablation_cmd =
  let which_conv =
    Arg.enum [ ("T", `T); ("Q", `Q); ("C", `C); ("epsilon", `Eps); ("mix", `Mix) ]
  in
  let which_arg =
    Arg.(
      value
      & opt which_conv `T
      & info [ "which" ] ~docv:"PARAM"
          ~doc:
            "Parameter to sweep: T (rooster interval), Q (quiescence \
             threshold), C (switch threshold), epsilon (clock-skew \
             tolerance).")
  in
  let run seed csv which =
    match which with
    | `T ->
      emit ?csv "Ablation: rooster interval T (Cadence, list, 8 cores)"
        (F.ablation_rooster ~seed)
    | `Q ->
      emit ?csv "Ablation: quiescence threshold Q (QSBR, list, 8 cores)"
        (F.ablation_quiescence ~seed)
    | `C ->
      emit ?csv "Ablation: switch threshold C (QSense under periodic delays)"
        (F.ablation_switch_threshold ~seed)
    | `Eps ->
      emit ?csv
        "Ablation: epsilon vs rooster oversleep (Cadence safety; violations \
         must be 0 iff epsilon covers the timing inaccuracy)"
        (F.ablation_epsilon ~seed)
    | `Mix ->
      emit ?csv
        "Ablation: update mix (§3.2 — the HP fence tax is highest on \
         read-only workloads)"
        (F.ablation_update_mix ~seed)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run a parameter ablation.")
    Term.(const run $ seed_arg $ csv_arg $ which_arg)

let run_cmd =
  let scheme_conv =
    Arg.enum
      (List.map (fun k -> (Qs_smr.Scheme.to_string k, k)) Qs_smr.Scheme.all)
  in
  let scheme_arg =
    Arg.(value & opt scheme_conv Qs_smr.Scheme.Qsense
         & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Reclamation scheme.")
  in
  let cores_arg =
    Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc:"Worker processes/cores.")
  in
  let range_arg =
    Arg.(value & opt int 2_000 & info [ "range" ] ~docv:"KEYS" ~doc:"Key range.")
  in
  let updates_arg =
    Arg.(value & opt int 50 & info [ "updates" ] ~docv:"PCT" ~doc:"Update percentage.")
  in
  let duration_arg =
    Arg.(value & opt int 400_000
         & info [ "duration" ] ~docv:"TICKS" ~doc:"Virtual duration in ticks.")
  in
  let stall_arg =
    Arg.(value & opt (some int) None
         & info [ "stall-at" ] ~docv:"TICK"
             ~doc:"Stall the last worker permanently from this virtual time.")
  in
  let cap_arg =
    Arg.(value & opt (some int) None
         & info [ "cap" ] ~docv:"NODES" ~doc:"Arena capacity (memory bound).")
  in
  let run scheme ds cores range updates duration stall cap seed =
    let r =
      Qs_harness.Sim_exp.run
        { (Qs_harness.Sim_exp.default_setup ~ds ~scheme ~n_processes:cores
             ~workload:(Qs_workload.Spec.make ~key_range:range ~update_pct:updates)) with
          seed;
          duration;
          capacity = cap;
          delays =
            Option.map
              (fun at -> { Qs_harness.Sim_exp.victim = cores - 1; windows = [ (at, max_int) ] })
              stall }
    in
    let tbl = Qs_util.Table.create [ "metric"; "value" ] in
    let add k v = Qs_util.Table.add_row tbl [ k; v ] in
    add "scheme" (Qs_smr.Scheme.to_string scheme);
    add "structure" (Cset.kind_to_string ds);
    add "ops total" (string_of_int r.ops_total);
    add "throughput (ops/Mtick)" (Printf.sprintf "%.1f" r.throughput);
    add "retired now / peak"
      (Printf.sprintf "%d / %d" r.report.smr.retired_now r.report.smr.retired_peak);
    add "frees" (string_of_int r.report.smr.frees);
    add "epoch advances" (string_of_int r.report.smr.epoch_advances);
    add "fallback / fast-path switches"
      (Printf.sprintf "%d / %d" r.report.smr.fallback_switches r.report.smr.fastpath_switches);
    add "mode at end"
      (match r.report.smr.mode with Qs_smr.Smr_intf.Fast -> "fast" | _ -> "fallback");
    add "use-after-free" (string_of_int r.violations);
    add "out of memory"
      (match r.failed_at with Some t -> Printf.sprintf "at t=%d" t | None -> "no");
    add "leak check"
      (match r.leak_check with
      | `Ok -> "ok"
      | `Leaked n -> Printf.sprintf "LEAKED %d" n
      | `Skipped -> "skipped (leaky baseline)");
    emit "Custom run" tbl
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one custom experiment and print its summary.")
    Term.(const run $ scheme_arg $ ds_arg $ cores_arg $ range_arg $ updates_arg
          $ duration_arg $ stall_arg $ cap_arg $ seed_arg)

let latency_cmd =
  let run seed csv =
    emit ?csv
      "Per-operation latency (ticks; list, 8 cores, 50% updates) — medians \
       show the per-traversal tax, tails show batched reclamation work"
      (F.latency_table ~seed)
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Per-operation latency distribution per scheme.")
    Term.(const run $ seed_arg $ csv_arg)

let all_cmd =
  let run scale seed =
    let tbl, _ = F.fig3 ~scale ~seed in
    emit "Figure 3" tbl;
    List.iter
      (fun ds ->
        let tbl, _ = F.fig5_top ~scale ~seed ~ds in
        emit (Printf.sprintf "Figure 5 top (%s)" (Cset.kind_to_string ds)) tbl)
      [ Cset.List; Cset.Skiplist; Cset.Bst ];
    List.iter
      (fun ds ->
        let tbl, results = F.fig5_bottom ~scale ~seed ~ds in
        emit (Printf.sprintf "Figure 5 bottom (%s)" (Cset.kind_to_string ds)) tbl;
        sparklines_of_series results)
      [ Cset.List; Cset.Skiplist; Cset.Bst ];
    let tbl, _, _ = F.overheads ~scale ~seed in
    emit "Overheads (§7.3)" tbl;
    emit "Ablation T" (F.ablation_rooster ~seed);
    emit "Ablation Q" (F.ablation_quiescence ~seed);
    emit "Ablation C" (F.ablation_switch_threshold ~seed);
    emit "Ablation epsilon" (F.ablation_epsilon ~seed);
    emit "Ablation update mix" (F.ablation_update_mix ~seed);
    emit "Latency distribution" (F.latency_table ~seed)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every figure and ablation.")
    Term.(const run $ scale_arg $ seed_arg)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduce the QSense paper's evaluation on the deterministic \
         multicore simulator."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fig3_cmd; fig5_top_cmd; fig5_bottom_cmd; overheads_cmd; ablation_cmd; latency_cmd; run_cmd; all_cmd ]))
