(* KV service (DESIGN.md §15): workload-layer statistics and the sharded
   service itself.

   - Zipfian census: the Gray et al. sampler's hot-key mass must match
     the analytic zeta ratio for every theta, and stay there across
     generator seeds (the statistic is a property of the spec, not of a
     lucky seed).
   - Differential: the same pre-generated trace replayed against
     {qsbr, hp, cadence, qsense} must leave the service with identical
     authoritative contents (the scheme reclaims memory; it must never
     change what the store says).
   - Churn smoke: handler churn (unregister / re-register under live
     concurrent traffic) stays violation- and leak-free, on the simulator
     and across domain generations on the real runtime.
   - Shard routing: tenant-prefixed keys must spread across shards even
     though tenants only differ in high key bits.
   - The get path, and a put+del pair of an absent key, allocate exactly
     zero minor words on the real runtime — the pins the bench service
     observatory gates on.
   - [report] sums the scheme counters of every shard and the index, not
     the index's alone. *)

module Ksp = Qs_workload.Kv_spec
module Kg = Qs_workload.Kv_gen
module Sx = Qs_harness.Sim_exp
module Rx = Qs_harness.Real_exp
module Ks = Qs_service.Kv.Make (Qs_sim.Sim_runtime)
module Kr = Qs_service.Kv.Make (Qs_real.Real_runtime)

let mix = { Ksp.get_pct = 50; put_pct = 25; del_pct = 15; scan_pct = 10 }

(* --- Zipfian census -------------------------------------------------------- *)

let draw_ops spec ~n ~seed =
  let prng = Qs_util.Prng.create ~seed in
  Array.init n (fun _ -> Ksp.pick prng spec)

(* Tolerance covers sampling noise at 200k draws plus the Gray et al.
   approximation's own bias, which grows as theta -> 1 (at theta 0.99 the
   approximation overshoots the analytic top-16 mass by ~1.7 points). *)
let test_zipf_census () =
  List.iter
    (fun theta ->
      let spec =
        Ksp.make ~dist:(Ksp.Zipfian theta) ~keys_per_tenant:1_024 ~mix ()
      in
      let ops = draw_ops spec ~n:200_000 ~seed:7 in
      List.iter
        (fun k ->
          let got = Ksp.hot_mass spec ops ~k in
          let want = Ksp.expected_hot_mass spec ~k in
          if Float.abs (got -. want) > 0.025 then
            Alcotest.failf
              "theta %.2f: hot mass of top %d keys = %.4f, analytic %.4f"
              theta k got want)
        [ 1; 16; 64 ])
    [ 0.5; 0.9; 0.99 ]

let test_zipf_census_across_seeds () =
  (* The hot-key mass is a spec property: every seed must reproduce it
     (within the same tolerance), and a fixed seed must reproduce the
     stream bit-for-bit. *)
  let spec =
    Ksp.make ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:1_024 ~mix ()
  in
  let want = Ksp.expected_hot_mass spec ~k:16 in
  List.iter
    (fun seed ->
      let got = Ksp.hot_mass spec (draw_ops spec ~n:200_000 ~seed) ~k:16 in
      if Float.abs (got -. want) > 0.015 then
        Alcotest.failf "seed %d: hot mass %.4f, analytic %.4f" seed got want)
    [ 1; 2; 23; 1009 ];
  let g1 = Kg.make spec ~n_processes:2 ~ops_per_process:512 ~seed:5 in
  let g2 = Kg.make spec ~n_processes:2 ~ops_per_process:512 ~seed:5 in
  for pid = 0 to 1 do
    Alcotest.(check bool)
      "same seed, same stream" true
      (Kg.stream g1 ~pid = Kg.stream g2 ~pid)
  done

let test_uniform_census () =
  let spec = Ksp.make ~keys_per_tenant:1_024 ~mix () in
  let ops = draw_ops spec ~n:200_000 ~seed:3 in
  let got = Ksp.hot_mass spec ops ~k:64 in
  let want = 64. /. 1_024. in
  if Float.abs (got -. want) > 0.01 then
    Alcotest.failf "uniform hot mass %.4f, expected %.4f" got want;
  (* the mix census must track the requested percentages *)
  let c = Ksp.census ops in
  let n = float_of_int (Array.length ops) in
  List.iteri
    (fun k pct ->
      let got = float_of_int c.(k) /. n *. 100. in
      if Float.abs (got -. float_of_int pct) > 1.0 then
        Alcotest.failf "%s mix %.2f%%, requested %d%%" (Ksp.kind_name k) got
          pct)
    [ mix.Ksp.get_pct; mix.Ksp.put_pct; mix.Ksp.del_pct; mix.Ksp.scan_pct ]

(* --- cross-scheme differential -------------------------------------------- *)

let schemes =
  [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence;
    Qs_smr.Scheme.Qsense ]

let test_service_differential () =
  (* One worker bounded by ops_limit: every scheme executes the identical
     logical request sequence, so the authoritative contents must agree
     exactly. (Multi-worker runs interleave differently per scheme by
     design; the single-worker trace isolates the scheme's only allowed
     effect — reclamation.) *)
  let spec =
    Ksp.make ~tenants:2 ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:256 ~mix ()
  in
  let gen = Kg.make spec ~n_processes:1 ~ops_per_process:3_000 ~seed:11 in
  let runs =
    List.map
      (fun scheme ->
        let setup =
          { (Sx.target_setup
               ~target:(Qs_harness.Target.Kv { gen; n_shards = 4 })
               ~scheme ~n_processes:1)
            with
            duration = max_int / 2;
            ops_limit = Some 3_000 }
        in
        let r = Sx.run setup in
        Alcotest.(check int)
          (Qs_smr.Scheme.to_string scheme ^ " violations")
          0 r.Sx.violations;
        Alcotest.(check int)
          (Qs_smr.Scheme.to_string scheme ^ " completed the trace")
          3_000 r.Sx.ops_total;
        (match r.Sx.leak_check with
        | `Ok | `Skipped -> ()
        | `Leaked n ->
          Alcotest.failf "%s leaked %d nodes"
            (Qs_smr.Scheme.to_string scheme)
            n);
        (scheme, r.Sx.contents))
      schemes
  in
  match runs with
  | [] | [ _ ] -> assert false
  | (_, reference) :: rest ->
    List.iter
      (fun (scheme, contents) ->
        if contents <> reference then
          Alcotest.failf
            "%s final contents differ from qsbr (%d vs %d keys)"
            (Qs_smr.Scheme.to_string scheme)
            (List.length contents) (List.length reference))
      rest

let test_service_churn_smoke () =
  List.iter
    (fun scheme ->
      let spec =
        Ksp.make ~tenants:2 ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:256
          ~mix ()
      in
      let gen = Kg.make spec ~n_processes:4 ~ops_per_process:2_048 ~seed:23 in
      (* every_ops is sized to HP, the slowest scheme in virtual ticks
         (~2k/request): every worker must cross the churn threshold a few
         times inside the duration budget. *)
      let setup =
        { (Sx.target_setup
             ~target:(Qs_harness.Target.Kv { gen; n_shards = 4 })
             ~scheme ~n_processes:4)
          with
          duration = 150_000;
          churn = Some { Sx.every_ops = 20; downtime = 1_000 } }
      in
      let r = Sx.run setup in
      let name = Qs_smr.Scheme.to_string scheme in
      Alcotest.(check int) (name ^ " violations") 0 r.Sx.violations;
      Alcotest.(check bool) (name ^ " made progress") true (r.Sx.ops_total > 0);
      Alcotest.(check bool)
        (name ^ " churned under live traffic")
        true (r.Sx.churn_events > 0);
      match r.Sx.leak_check with
      | `Ok | `Skipped -> ()
      | `Leaked n -> Alcotest.failf "%s leaked %d nodes" name n)
    schemes

(* The same service on real domains: QSense workers replay their streams
   across two domain generations per pid slot, so each slot's first
   generation unregisters (donating its limbo) under live traffic. *)
let test_service_real_churn () =
  let spec =
    Ksp.make ~tenants:2 ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:256 ~mix ()
  in
  let gen = Kg.make spec ~n_processes:2 ~ops_per_process:2_048 ~seed:42 in
  let r =
    Rx.run
      { (Rx.target_setup
           ~target:(Qs_harness.Target.Kv { gen; n_shards = 4 })
           ~scheme:Qs_smr.Scheme.Qsense ~n_domains:2)
        with
        duration_ms = 40;
        churn = Some { Rx.generations = 2; downtime_ms = 2 } }
  in
  Alcotest.(check int) "violations" 0 r.Rx.violations;
  Alcotest.(check bool) "did not fail" false r.Rx.failed;
  Alcotest.(check bool) "churned" true (r.Rx.churn_events > 0);
  Alcotest.(check int) "per-kind ops sum to the total" r.Rx.ops_total
    (Array.fold_left ( + ) 0 r.Rx.per_kind_ops)

(* --- shard routing --------------------------------------------------------- *)

let test_shard_distribution () =
  let cfg =
    Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme:Qs_smr.Scheme.Qsbr
  in
  let svc = Ks.create ~n_shards:8 cfg in
  let spec = Ksp.make ~tenants:16 ~keys_per_tenant:64 ~mix () in
  let counts = Array.make 8 0 in
  for tenant = 0 to 15 do
    for local = 0 to 63 do
      let s = Ks.shard_index svc (Ksp.key_of spec ~tenant ~local) in
      counts.(s) <- counts.(s) + 1
    done
  done;
  (* 1024 tenant-prefixed keys over 8 shards: every shard populated, and
     none grabbing more than 2x its fair share. A low-bits (mod) shard
     route sends whole tenants to one shard and fails this. *)
  Array.iteri
    (fun i c ->
      if c = 0 then Alcotest.failf "shard %d empty" i;
      if c > 256 then Alcotest.failf "shard %d holds %d of 1024 keys" i c)
    counts

(* --- allocation pins --------------------------------------------------------- *)

(* 512 keys (the even keys of [0, 1024)) on a 4-shard QSense service. *)
let warm_real_service () =
  Qs_real.Real_runtime.register_self 0;
  let cfg =
    { (Qs_ds.Set_intf.default_config ~n_processes:1
         ~scheme:Qs_smr.Scheme.Qsense)
      with Qs_ds.Set_intf.debug_checks = false }
  in
  let ctx = Kr.register (Kr.create ~n_shards:4 cfg) ~pid:0 in
  for k = 0 to 511 do
    ignore (Kr.put ctx (2 * k))
  done;
  ctx

let test_get_zero_alloc () =
  let ctx = warm_real_service () in
  Test_skiplist.check_zero "get" (fun i -> ignore (Kr.get ctx (i land 1023)))

(* Each step puts an odd (absent) key and deletes it: one insert and one
   delete in a shard table and in the index, retired nodes recycled. *)
let test_put_del_zero_alloc () =
  let ctx = warm_real_service () in
  Test_skiplist.check_zero "put+del pair" (fun i ->
      let k = (2 * (i land 511)) + 1 in
      if not (Kr.put ctx k && Kr.del ctx k) then
        Alcotest.fail "put+del of an absent key had no effect")

(* --- service-wide report ------------------------------------------------------ *)

(* Under the leaky baseline nothing is ever freed, so every retire in every
   shard and in the index is still retired at the end: the report's
   [smr.retires] must equal [retired_count], which sums all instances. *)
let test_report_sums_shards () =
  Qs_real.Real_runtime.register_self 0;
  let cfg =
    Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme:Qs_smr.Scheme.None_
  in
  let svc = Kr.create ~n_shards:4 cfg in
  let ctx = Kr.register svc ~pid:0 in
  let keys = List.init 64 (fun k -> 3 * k) in
  List.iter (fun k -> ignore (Kr.put ctx k)) keys;
  List.iter (fun k -> ignore (Kr.del ctx k)) keys;
  let shards =
    List.sort_uniq compare (List.map (Kr.shard_index svc) keys)
  in
  Alcotest.(check bool) "deletes span >= 2 shards" true (List.length shards >= 2);
  let retired = Kr.retired_count svc in
  Alcotest.(check bool) "deletes retired nodes" true (retired > 0);
  Alcotest.(check int) "report.smr.retires = retired_count" retired
    (Kr.report svc).Qs_ds.Set_intf.smr.retires

let suite =
  [ Alcotest.test_case "zipfian census matches analytic mass" `Quick
      test_zipf_census;
    Alcotest.test_case "zipfian census stable across seeds" `Quick
      test_zipf_census_across_seeds;
    Alcotest.test_case "uniform census and mix percentages" `Quick
      test_uniform_census;
    Alcotest.test_case "cross-scheme differential: identical contents" `Slow
      test_service_differential;
    Alcotest.test_case "handler churn under live traffic" `Slow
      test_service_churn_smoke;
    Alcotest.test_case "real-domain handler churn across generations" `Quick
      test_service_real_churn;
    Alcotest.test_case "tenant-prefixed keys spread across shards" `Quick
      test_shard_distribution;
    Alcotest.test_case "get path allocates exactly zero" `Quick
      test_get_zero_alloc;
    Alcotest.test_case "put+del pair allocates exactly zero" `Quick
      test_put_del_zero_alloc;
    Alcotest.test_case "report sums scheme counters over every shard" `Quick
      test_report_sums_shards ]
