(* Tests of the real-domain runtime: primitives, rooster domains, the
   domain pool, and multi-domain smoke runs of the data structures with
   real atomics/fences (domains timeshare on small machines — correctness,
   not scalability, is what these check). *)

module R = Qs_real.Real_runtime

let test_primitives () =
  let p = R.plain 1 in
  R.write p 2;
  Alcotest.(check int) "plain rw" 2 (R.read p);
  let a = R.atomic 10 in
  R.set a 11;
  Alcotest.(check int) "atomic rw" 11 (R.get a);
  Alcotest.(check bool) "cas ok" true (R.cas a 11 12);
  Alcotest.(check bool) "cas stale" false (R.cas a 11 13);
  Alcotest.(check int) "faa" 12 (R.fetch_and_add a 5);
  Alcotest.(check int) "after faa" 17 (R.get a);
  R.fence ();
  let t0 = R.now () in
  let t1 = R.now () in
  Alcotest.(check bool) "clock monotone" true (t1 >= t0)

let test_self_registration () =
  R.register_self 0;
  Alcotest.(check int) "main is 0" 0 (R.self ());
  let ids =
    Qs_real.Domain_pool.run ~n:3 (fun pid ->
        R.yield ();
        (pid, R.self ()))
  in
  Array.iter (fun (pid, self) -> Alcotest.(check int) "self = pid" pid self) ids

let test_roosters () =
  let r = Qs_real.Roosters.start ~interval_ns:1_000_000 ~n:1 in
  let t0 = Qs_real.Roosters.coarse_now r in
  Unix.sleepf 0.05;
  let w = Qs_real.Roosters.wakeups r in
  let t1 = Qs_real.Roosters.coarse_now r in
  Qs_real.Roosters.stop r;
  Alcotest.(check bool) "woke up" true (w > 0);
  Alcotest.(check bool) "coarse clock advanced" true (t1 > t0);
  (* after stop, no more wakeups *)
  let w_final = Qs_real.Roosters.wakeups r in
  Unix.sleepf 0.02;
  Alcotest.(check int) "stopped" w_final (Qs_real.Roosters.wakeups r)

let smoke ~scheme ~ds () =
  let r =
    Qs_harness.Real_exp.run
      { (Qs_harness.Real_exp.default_setup ~ds ~scheme ~n_domains:3
           ~workload:(Qs_workload.Spec.updates_50 ~key_range:256)) with
        duration_ms = 150;
        seed = 3 }
  in
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "not failed" false r.failed;
  Alcotest.(check bool) "made progress" true (r.ops_total > 100);
  Alcotest.(check int) "no double frees" 0 r.report.double_frees;
  if scheme <> Qs_smr.Scheme.None_ then
    Alcotest.(check bool) "reclaimed memory" true (r.report.smr.frees > 0)

let test_roosters_stop_latency () =
  (* stop must return well under one interval: the rooster loop sleeps in
     small naps and re-checks the stop flag, instead of sleeping the whole
     interval through (the old behaviour made teardown of long-interval
     configurations take up to a full interval) *)
  let interval_ns = 500_000_000 (* 0.5 s *) in
  let r = Qs_real.Roosters.start ~interval_ns ~n:1 in
  Unix.sleepf 0.01;
  let t0 = Unix.gettimeofday () in
  Qs_real.Roosters.stop r;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.3fs, well under the 0.5s interval"
       elapsed)
    true
    (elapsed < 0.25)

let test_domain_pool_generations () =
  (* Workers only record [R.self ()]; the checks run on this domain, since
     Alcotest's printer (a shared Format queue) is not domain-safe. *)
  let results =
    Qs_real.Domain_pool.run_generations ~n:2 ~generations:3
      ~downtime_s:0.002 (fun ~pid:_ ~gen -> (R.self (), gen))
  in
  Alcotest.(check int) "one slot per pid" 2 (Array.length results);
  Array.iteri
    (fun pid gens ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf
           "slot %d ran three generations in order, each registered under pid %d"
           pid pid)
        [ (pid, 0); (pid, 1); (pid, 2) ]
        gens)
    results

let test_real_churn () =
  (* worker churn on real domains: each pid slot runs three successive
     worker generations, every hand-off donating the departing domain's
     limbo lists to the orphan pool; survivors must adopt and the run must
     stay safe and leak-free *)
  List.iter
    (fun scheme ->
      let name = Qs_smr.Scheme.to_string scheme in
      let r =
        Qs_harness.Real_exp.run
          { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
               ~scheme ~n_domains:3
               ~workload:(Qs_workload.Spec.updates_50 ~key_range:128)) with
            duration_ms = 200;
            seed = 7;
            churn = Some { Qs_harness.Real_exp.generations = 3; downtime_ms = 5 } }
      in
      Alcotest.(check int) (name ^ ": no use-after-free under churn") 0
        r.violations;
      Alcotest.(check bool) (name ^ ": not failed") false r.failed;
      Alcotest.(check int) (name ^ ": no double frees") 0
        r.report.double_frees;
      Alcotest.(check bool) (name ^ ": churn actually happened") true
        (r.churn_events > 0);
      Alcotest.(check bool) (name ^ ": made progress") true (r.ops_total > 100))
    [ Qs_smr.Scheme.Qsense; Qs_smr.Scheme.Cadence ]

let test_real_stall_tolerance () =
  (* a stalled domain must not break QSense on the real runtime either *)
  let r =
    Qs_harness.Real_exp.run
      { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
           ~scheme:Qs_smr.Scheme.Qsense ~n_domains:3
           ~workload:(Qs_workload.Spec.updates_50 ~key_range:128)) with
        duration_ms = 300;
        stall_victim_after_ms = Some 60;
        seed = 5;
        smr_tweak = (fun c -> { c with switch_threshold = 64 }) }
  in
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "not failed" false r.failed

let suite =
  [ Alcotest.test_case "primitives" `Quick test_primitives;
    Alcotest.test_case "self registration" `Quick test_self_registration;
    Alcotest.test_case "rooster domains" `Quick test_roosters;
    Alcotest.test_case "list/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.List);
    Alcotest.test_case "list/hp on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Hp ~ds:Qs_harness.Cset.List);
    Alcotest.test_case "skiplist/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.Skiplist);
    Alcotest.test_case "bst/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.Bst);
    Alcotest.test_case "hashtable/cadence on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Cadence ~ds:Qs_harness.Cset.Hashtable);
    Alcotest.test_case "qsense tolerates stalled domain" `Quick test_real_stall_tolerance;
    Alcotest.test_case "roosters stop promptly" `Quick test_roosters_stop_latency;
    Alcotest.test_case "domain pool generations" `Quick test_domain_pool_generations;
    Alcotest.test_case "churn on real domains" `Slow test_real_churn
  ]
