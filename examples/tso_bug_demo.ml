(* Why you cannot just delete the fence: the paper's Algorithm 2, live.

   Run with:  dune exec examples/tso_bug_demo.exe

   Under TSO (x86), a hazard-pointer STORE may be delayed in the writer's
   store buffer past the subsequent validation LOAD. A reclaimer scanning
   the hazard-pointer array then misses the protection and frees a node the
   reader is about to dereference.

   The simulator models store buffers faithfully, so we can show all three
   outcomes side by side on the same workload:

   - unsafe-hp  : hazard pointers WITHOUT the fence    -> use-after-free
   - hp         : classic hazard pointers (fenced)     -> safe, slow
   - cadence    : no fence, rooster processes + deferred reclamation
                  (the paper's fix)                    -> safe AND fast *)

open Qs_harness

let run scheme =
  let violations, tput =
    List.fold_left
      (fun (v, tp) seed ->
        let r =
          Sim_exp.run
            { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:4
                 ~workload:(Qs_workload.Spec.make ~key_range:16 ~update_pct:40)) with
              seed;
              duration = 400_000;
              smr_tweak =
                (fun c ->
                  { c with
                    quiescence_threshold = 4;
                    scan_threshold = 1; (* scan every retire: the bug window is per-scan *)
                    rooster_interval = 2_000;
                    epsilon = 300 });
              sched_tweak =
                (fun c ->
                  { c with
                    (* adversarial asynchrony: long stalls and big store
                       buffers widen the reordering window *)
                    store_buffer_capacity = 100_000;
                    rooster_interval =
                      (if Qs_smr.Scheme.needs_roosters scheme then Some 2_000
                       else None);
                    cost =
                      { Qs_sim.Scheduler.default_cost with
                        stall_prob = 0.005;
                        stall_max = 3_000 } }) }
        in
        (v + r.violations, tp +. r.throughput))
      (0, 0.)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Printf.printf "%-10s use-after-free: %-4d   throughput: %.0f ops/Mtick\n"
    (Qs_smr.Scheme.to_string scheme) violations (tput /. 6.)

let () =
  print_endline "Hazard pointers under TSO, 4 processes, 6 seeds:";
  print_newline ();
  List.iter run
    [ Qs_smr.Scheme.Unsafe_hp; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence ];
  print_newline ();
  print_endline "unsafe-hp reclaims nodes readers still hold (the Algorithm-2";
  print_endline "interleaving); the fence fixes it at a steep cost; Cadence";
  print_endline "fixes it for free via rooster-forced context switches plus";
  print_endline "deferred reclamation."
