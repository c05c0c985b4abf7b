(* Delay tolerance: the paper's headline robustness story (Figure 5, bottom
   row) as a narrated demo on the deterministic simulator.

   Run with:  dune exec examples/delay_tolerance.exe

   Eight processes hammer a linked list under bounded memory. Every 20
   simulated seconds one process stalls for 10 seconds:

   - QSBR cannot reach quiescence while the victim sleeps, its limbo lists
     grow unbounded, and it dies of memory exhaustion during the first
     stall;
   - QSense detects the backlog, switches to the Cadence fallback path,
     keeps reclaiming (hazard pointers + deferred reclamation need no help
     from the sleeping process), and switches back when the victim
     returns. *)

open Qs_harness

let describe scheme =
  let sim_second = 20_000 in
  let windows = [ (10, 20); (30, 40); (50, 60) ] in
  let r =
    Sim_exp.run
      { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:8
           ~workload:(Qs_workload.Spec.updates_50 ~key_range:128)) with
        seed = 1;
        duration = 70 * sim_second;
        capacity = Some (64 + 150);
        sample_every = sim_second;
        delays =
          Some
            { victim = 7;
              windows = List.map (fun (a, b) -> (a * sim_second, b * sim_second)) windows };
        smr_tweak =
          (fun c ->
            { c with
              quiescence_threshold = 8;
              scan_threshold = 8;
              switch_threshold = 24 }) }
  in
  Printf.printf "%-7s | %s\n" (Qs_smr.Scheme.to_string scheme)
    (Qs_util.Table.sparkline r.series);
  Printf.printf "        | ops=%d  fallback switches=%d  recoveries=%d%s\n\n"
    r.ops_total r.report.smr.fallback_switches r.report.smr.fastpath_switches
    (match r.failed_at with
    | Some t ->
      Printf.sprintf "  ** OUT OF MEMORY at t=%d (second %d) **" t (t / sim_second)
    | None -> "")

let () =
  print_endline "Throughput over simulated time; the victim sleeps during";
  print_endline "seconds [10,20), [30,40), [50,60):";
  print_newline ();
  List.iter describe [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Qsense; Qs_smr.Scheme.Hp ]
