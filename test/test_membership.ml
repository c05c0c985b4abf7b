(* Dynamic membership: unregister / orphan adoption / slot reuse across the
   schemes, the QSense eviction-leak and mode-switch-race regressions, the
   degenerate-config (Division_by_zero) regression, and the end-to-end
   churn experiment on the simulator.

   Everything scheme-level reuses test_smr's idiom: schemes driven
   directly over a fake node type, with an explicit freed-id log. *)

open Qs_sim
open Qs_harness
module R = Sim_runtime
module Smr = Qs_smr.Smr_intf
module Orphan_pool = Qs_smr.Orphan_pool

type fake = { id : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.id
end

module Hp = Qs_smr.Hazard_pointers.Make (R) (N)
module Qsbr = Qs_smr.Qsbr.Make (R) (N)
module Ebr = Qs_smr.Ebr.Make (R) (N)
module Cadence = Qs_smr.Cadence.Make (R) (N)
module Qsense = Qs_smr.Qsense.Make (R) (N)

let dummy = { id = -1; freed = 0 }
let mk id = { id; freed = 0 }

let cfg ?(n = 2) ?(k = 2) ?(q = 4) ?(r = 4) ?(t = 1_000) ?(eps = 100) ?(c = 0)
    ?eviction ?(bag_cap = 64) () =
  { Smr.n_processes = n;
    hp_per_process = k;
    quiescence_threshold = q;
    scan_threshold = r;
    rooster_interval = t;
    epsilon = eps;
    switch_threshold = c;
    removes_per_op_max = 1;
    eviction_timeout = eviction;
    bag_capacity = bag_cap }

let sched ?(n_cores = 2) ?(seed = 3) ?(rooster = Some 1_000) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with rooster_interval = rooster }

let track_frees freed_log data count =
  for i = 0 to count - 1 do
    let n = data.(i) in
    n.freed <- n.freed + 1;
    freed_log := n.id :: !freed_log
  done

let check_freed freed ids =
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d freed" id)
        true (List.mem id !freed))
    ids

let check_kept freed ids =
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d kept" id)
        true
        (not (List.mem id !freed)))
    ids

(* --- the orphan pool itself ---------------------------------------------- *)

let test_orphan_pool () =
  let p : int list Orphan_pool.t = Orphan_pool.create () in
  Alcotest.(check bool) "fresh pool empty" true (Orphan_pool.is_empty p);
  Alcotest.(check int) "fresh pool counts 0" 0 (Orphan_pool.node_count p);
  (* empty donations are skipped entirely: no entry, no count *)
  Orphan_pool.donate p ~donor:7 ~nodes:0 [];
  Alcotest.(check bool) "zero-node donation skipped" true
    (Orphan_pool.is_empty p);
  Orphan_pool.donate p ~donor:1 ~nodes:3 [ 10; 11; 12 ];
  Orphan_pool.donate p ~donor:2 ~nodes:2 [ 20; 21 ];
  Alcotest.(check bool) "non-empty" false (Orphan_pool.is_empty p);
  Alcotest.(check int) "counts all pooled nodes" 5 (Orphan_pool.node_count p);
  (match Orphan_pool.take p with
  | Some e ->
    Alcotest.(check int) "LIFO: last donor first" 2 e.Orphan_pool.donor;
    Alcotest.(check int) "entry node count" 2 e.Orphan_pool.nodes;
    Alcotest.(check (list int)) "payload intact" [ 20; 21 ] e.Orphan_pool.payload
  | None -> Alcotest.fail "take on non-empty pool");
  Alcotest.(check int) "count follows take" 3 (Orphan_pool.node_count p);
  (* drain empties in one exchange (the teardown path) *)
  Orphan_pool.donate p ~donor:3 ~nodes:1 [ 30 ];
  let es = Orphan_pool.drain p in
  Alcotest.(check int) "drain returns all entries" 2 (List.length es);
  Alcotest.(check bool) "drained empty" true (Orphan_pool.is_empty p);
  Alcotest.(check int) "drained count 0" 0 (Orphan_pool.node_count p);
  Alcotest.(check (option reject)) "take on empty" None
    (Option.map (fun _ -> ()) (Orphan_pool.take p))

(* --- QSBR: donation, grace-period adoption, slot reuse -------------------- *)

let test_qsbr_unregister_adopt () =
  let s = sched () in
  let freed = ref [] in
  let t = Qsbr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Qsbr.register t ~pid:0 in
  let h1 = Qsbr.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Qsbr.retire h1 (mk 101);
      Qsbr.retire h1 (mk 102);
      Qsbr.retire h1 (mk 103);
      Qsbr.unregister h1);
  (* orphaned nodes are still removed-but-unfreed *)
  Alcotest.(check int) "orphans counted in retired_count" 3
    (Qsbr.retired_count t);
  Alcotest.(check (list int)) "nothing freed by departure itself" [] !freed;
  (* the survivor advances epochs alone (the absent slot no longer gates
     advancement) and frees the adopted batch behind a full epoch cycle *)
  Scheduler.exec s ~pid:0 (fun () ->
      for _ = 1 to 30 do
        Qsbr.manage_state h0
      done);
  check_freed freed [ 101; 102; 103 ];
  Alcotest.(check int) "no orphans left" 0 (Qsbr.retired_count t);
  (* slot reuse: a handle re-registered into the vacated slot joins at its
     first manage_state and participates normally *)
  let h1' = Qsbr.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Qsbr.manage_state h1';
      Qsbr.retire h1' (mk 104));
  Alcotest.(check int) "fresh handle retires into its own limbo" 1
    (Qsbr.retired_count t);
  (* legacy folding: stats stay monotone across the departure *)
  let st = Qsbr.stats t in
  Alcotest.(check int) "retires monotone across churn" 4 st.Smr.retires;
  Alcotest.(check int) "frees monotone across churn" 3 st.Smr.frees

(* EBR shares QSBR's membership mechanics; one round-trip keeps it
   honest. *)
let test_ebr_unregister_adopt () =
  let s = sched () in
  let freed = ref [] in
  let t = Ebr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Ebr.register t ~pid:0 in
  let h1 = Ebr.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Ebr.manage_state h1;
      Ebr.retire h1 (mk 111);
      Ebr.retire h1 (mk 112);
      Ebr.unregister h1);
  Alcotest.(check int) "orphans counted" 2 (Ebr.retired_count t);
  Scheduler.exec s ~pid:0 (fun () ->
      for _ = 1 to 40 do
        Ebr.manage_state h0
      done);
  check_freed freed [ 111; 112 ];
  let h1' = Ebr.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Ebr.manage_state h1';
      Ebr.retire h1' (mk 113));
  Alcotest.(check int) "slot reused" 1 (Ebr.retired_count t)

(* --- HP: adoption on scan, under the survivor's hazard filter ------------- *)

let test_hp_unregister_adopt () =
  let s = sched () in
  let freed = ref [] in
  let t = Hp.create (cfg ~r:3 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Hp.register t ~pid:0 in
  let h1 = Hp.register t ~pid:1 in
  let a = mk 201 in
  (* the survivor protects one of the nodes the departer will orphan *)
  Scheduler.exec s ~pid:0 (fun () -> Hp.assign_hp h0 ~slot:0 a);
  Scheduler.exec s ~pid:1 (fun () ->
      Hp.retire h1 a;
      Hp.retire h1 (mk 202);
      Hp.unregister h1);
  Alcotest.(check int) "orphans counted" 2 (Hp.retired_count t);
  Alcotest.(check (list int)) "departure frees nothing" [] !freed;
  (* the survivor's next scan adopts the orphans; the hazard filter applies
     to them exactly as to its own removed list *)
  Scheduler.exec s ~pid:0 (fun () ->
      Hp.retire h0 (mk 203);
      Hp.retire h0 (mk 204);
      Hp.retire h0 (mk 205));
  check_freed freed [ 202 ];
  check_kept freed [ 201 ];
  (* releasing the hazard lets the next scan free the protected orphan *)
  Scheduler.exec s ~pid:0 (fun () ->
      Hp.clear_hps h0;
      R.fence ();
      Hp.retire h0 (mk 206);
      Hp.retire h0 (mk 207);
      Hp.retire h0 (mk 208));
  check_freed freed [ 201 ]

(* --- Cadence: adoption preserves retire timestamps ------------------------ *)

let test_cadence_unregister_preserves_ages () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t =
    Cadence.create (cfg ~r:1 ~t:1_000 ~eps:100 ()) ~dummy
      ~free_bulk:(track_frees freed)
  in
  let h0 = Cadence.register t ~pid:0 in
  let h1 = Cadence.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Cadence.retire h1 (mk 301);
      Cadence.retire h1 (mk 302);
      Cadence.unregister h1);
  Alcotest.(check int) "orphans counted" 2 (Cadence.retired_count t);
  Scheduler.exec s ~pid:0 (fun () ->
      (* the adopter's scan picks the orphans up with their original
         timestamps — too young to free, so they must be kept *)
      Cadence.retire h0 (mk 303);
      Alcotest.(check (list int)) "young orphans kept" [] !freed;
      (* age everything past T + epsilon: now the adopter frees them *)
      Sim_runtime.charge 2_000;
      Cadence.retire h0 (mk 304);
      check_freed freed [ 301; 302 ];
      check_kept freed [ 304 ])

(* Adopted orphans older than T + epsilon are freed by the first scan after
   adoption, even when the adopter's own oldest bag is young. With
   one-node bags every retire seals a bag; the adopter's young bag must
   not stop the age-ordered walk before it reaches the orphans' bags. *)
let test_cadence_adopted_orphans_freed () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t =
    Cadence.create (cfg ~r:1 ~t:1_000 ~eps:100 ~bag_cap:1 ()) ~dummy
      ~free_bulk:(track_frees freed)
  in
  let h0 = Cadence.register t ~pid:0 in
  let h1 = Cadence.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Cadence.retire h1 (mk 401);
      Cadence.retire h1 (mk 402);
      Cadence.unregister h1);
  Alcotest.(check int) "orphans counted" 2 (Cadence.retired_count t);
  Scheduler.exec s ~pid:0 (fun () ->
      (* past T + epsilon for the orphans, then one retire: its scan
         adopts them behind the adopter's own, just-sealed bag *)
      Sim_runtime.charge 2_000;
      Cadence.retire h0 (mk 403));
  check_freed freed [ 401; 402 ];
  check_kept freed [ 403 ];
  Alcotest.(check int) "only the young node left" 1 (Cadence.retired_count t)

(* --- QSense: unregister donates, survivors adopt under HP + age ----------- *)

let test_qsense_unregister_adopt () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t =
    Qsense.create (cfg ~q:1 ~r:2 ~c:50 ()) ~dummy ~free_bulk:(track_frees freed)
  in
  let h0 = Qsense.register t ~pid:0 in
  let h1 = Qsense.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      for i = 401 to 405 do
        Qsense.retire h1 (mk i)
      done;
      Qsense.unregister h1);
  Alcotest.(check int) "orphans counted" 5 (Qsense.retired_count t);
  (* the survivor adopts on its quiescent path; adopted nodes are reclaimed
     exclusively through the HP + age filter (the vacant seat keeps epoch
     freeing filtered), so they free once aged *)
  Scheduler.exec s ~pid:0 (fun () ->
      Sim_runtime.charge 3_000;
      for i = 406 to 420 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done);
  check_freed freed [ 401; 402; 403; 404; 405 ];
  Alcotest.(check bool) "stayed on the fast path throughout" true
    ((Qsense.stats t).Smr.mode = Smr.Fast);
  (* the vacated slot rejoins through the ordinary eviction-rejoin path *)
  let h1' = Qsense.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      Qsense.manage_state h1';
      Qsense.retire h1' (mk 421));
  let st = Qsense.stats t in
  Alcotest.(check int) "retires monotone across churn" 21 st.Smr.retires;
  Alcotest.(check bool) "rejoined handle owns its retire" true
    (st.Smr.retired_now >= 1)

(* --- satellite: the eviction-leak regression ------------------------------ *)

(* Before the membership layer, QSense's §5.2 eviction silently leaked the
   victim's limbo lists: the evictor marked the slot evicted and moved on,
   and nobody ever freed what the victim had retired. Now the evictor
   seizes the victim's lists into the orphan pool and survivors adopt and
   free them under HP + age. *)
let test_qsense_eviction_frees_victim_limbo () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t =
    Qsense.create
      (cfg ~q:2 ~r:2 ~c:5 ~eviction:2_000 ())
      ~dummy ~free_bulk:(track_frees freed)
  in
  let h0 = Qsense.register t ~pid:0 in
  let h1 = Qsense.register t ~pid:1 in
  let victim_ids = List.init 10 (fun i -> 501 + i) in
  (* the victim retires a batch, then crashes (never runs again) *)
  Scheduler.exec s ~pid:1 (fun () ->
      List.iter (fun i -> Qsense.retire h1 (mk i)) victim_ids);
  (* the survivor overflows C, falls back, and — once the victim has been
     silent past the eviction timeout — evicts it and returns to Fast *)
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 10 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done;
      Alcotest.(check bool) "fell back" true
        ((Qsense.stats t).Smr.mode = Smr.Fallback);
      Sim_runtime.charge 5_000;
      for i = 11 to 40 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done);
  let st = Qsense.stats t in
  Alcotest.(check bool) "victim evicted" true (st.Smr.evictions >= 1);
  Alcotest.(check bool) "back on the fast path despite the crash" true
    (st.Smr.mode = Smr.Fast);
  (* the regression itself: every node the victim retired was freed by the
     adopters — nothing leaked with the evicted slot *)
  check_freed freed victim_ids;
  Alcotest.(check bool)
    (Printf.sprintf "retired_now bounded (%d)" st.Smr.retired_now)
    true
    (st.Smr.retired_now < 40);
  (* drain: with the victim still evicted, the survivor's (filtered) epoch
     freeing reclaims its own backlog too once it ages — retired_now must
     return below C, where before this layer the victim's nodes pinned it
     above C forever *)
  Scheduler.exec s ~pid:0 (fun () ->
      Sim_runtime.charge 5_000;
      for _ = 1 to 30 do
        Qsense.manage_state h0
      done);
  let st = Qsense.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "retired_now (%d) back below C = 5" st.Smr.retired_now)
    true
    (st.Smr.retired_now < 5);
  (* and no double-free anywhere *)
  Alcotest.(check int) "freed ids are unique" (List.length !freed)
    (List.length (List.sort_uniq compare !freed))

(* --- satellite: the mode-switch race regression --------------------------- *)

(* Two workers blow past C in the same window. The 0->1 flag transition is
   a CAS, so exactly one switch is elected per round trip; the 1->0 exit
   winner — and only the winner — accounts the fallback dwell. The
   observable contract: entries and exits balance once the scheme is back
   on the fast path, and ticks are counted once (bounded by the wall
   clock), no matter how the overflow interleaves. *)
let test_qsense_switch_race_balanced () =
  List.iter
    (fun seed ->
      let s = sched ~n_cores:2 ~seed () in
      let freed = ref [] in
      let t =
        Qsense.create (cfg ~q:2 ~r:2 ~c:5 ()) ~dummy
          ~free_bulk:(track_frees freed)
      in
      let h0 = Qsense.register t ~pid:0 in
      let h1 = Qsense.register t ~pid:1 in
      Scheduler.spawn s ~pid:0 (fun () ->
          for i = 1 to 30 do
            Qsense.retire h0 (mk i);
            Qsense.manage_state h0
          done);
      Scheduler.spawn s ~pid:1 (fun () ->
          for i = 31 to 60 do
            Qsense.retire h1 (mk i);
            Qsense.manage_state h1
          done);
      Scheduler.run_all s;
      (* both stay live, so the scheme must be able to complete the round
         trip; drive quiescence until it does *)
      let rounds = ref 0 in
      while
        (Qsense.stats t).Smr.mode = Smr.Fallback && !rounds < 200
      do
        incr rounds;
        Scheduler.exec s ~pid:0 (fun () -> Qsense.manage_state h0);
        Scheduler.exec s ~pid:1 (fun () -> Qsense.manage_state h1)
      done;
      let st = Qsense.stats t in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: returned to fast path" seed)
        true (st.Smr.mode = Smr.Fast);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: at least one round trip" seed)
        true
        (st.Smr.fallback_entries >= 1);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: entries = exits (each switch elected once)"
           seed)
        st.Smr.fallback_entries st.Smr.fallback_exits;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: dwell counted once, within the wall clock"
           seed)
        true
        (st.Smr.fallback_ticks > 0
        && st.Smr.fallback_ticks <= Scheduler.max_clock s))
    [ 3; 7; 13 ]

(* --- satellite: degenerate configs must not divide by zero ---------------- *)

let test_degenerate_scan_threshold () =
  List.iter
    (fun r ->
      let c = cfg ~r () in
      Alcotest.(check bool)
        (Printf.sprintf "scan_threshold %d clamps to >= 1" r)
        true
        (Smr.effective_scan_threshold c >= 1);
      (* and actually driving the scan-scheduling schemes on such a config
         must not raise Division_by_zero *)
      let s = sched () in
      let freed = ref [] in
      let t = Hp.create c ~dummy ~free_bulk:(track_frees freed) in
      let h = Hp.register t ~pid:0 in
      Scheduler.exec s ~pid:0 (fun () ->
          for i = 1 to 5 do
            Hp.retire h (mk i);
            Hp.manage_state h
          done);
      (* threshold clamped to 1 = scan on every retire: everything
         unprotected is freed *)
      Alcotest.(check int)
        (Printf.sprintf "hp frees under threshold %d" r)
        5 (List.length !freed);
      let s2 = sched ~rooster:(Some 1_000) () in
      let t2 = Cadence.create c ~dummy ~free_bulk:(fun _ _ -> ()) in
      let h2 = Cadence.register t2 ~pid:0 in
      Scheduler.exec s2 ~pid:0 (fun () ->
          for i = 1 to 5 do
            Cadence.retire h2 (mk i);
            Cadence.manage_state h2
          done);
      let s3 = sched ~rooster:(Some 1_000) () in
      (* switch_threshold 1: QSense is in fallback from the first retire,
         where the scan cadence [fnl_count mod threshold] is exercised
         immediately ([switch_threshold <= 0] falls back on the legal
         default instead, so it cannot force the path) *)
      let t3 = Qsense.create { c with Smr.switch_threshold = 1 } ~dummy ~free_bulk:(fun _ _ -> ()) in
      let h3 = Qsense.register t3 ~pid:0 in
      Scheduler.exec s3 ~pid:0 (fun () ->
          for i = 1 to 5 do
            Qsense.retire h3 (mk i);
            Qsense.manage_state h3
          done);
      Alcotest.(check bool) "qsense survives a degenerate config" true
        ((Qsense.stats t3).Smr.mode = Smr.Fallback))
    [ 0; -4 ]

(* --- stats monotonicity across repeated churn ----------------------------- *)

let test_stats_monotone_across_churn () =
  let s = sched () in
  let freed = ref [] in
  (* r high enough that nothing scans: every retired node becomes an
     orphan on departure *)
  let t = Hp.create (cfg ~r:100 ()) ~dummy ~free_bulk:(track_frees freed) in
  for g = 1 to 3 do
    let h = Hp.register t ~pid:1 in
    Scheduler.exec s ~pid:1 (fun () ->
        for i = 1 to 4 do
          Hp.retire h (mk ((g * 10) + i))
        done;
        Hp.unregister h)
  done;
  let st = Hp.stats t in
  Alcotest.(check int) "retires survive three generations of handles" 12
    st.Smr.retires;
  Alcotest.(check int) "orphaned nodes all accounted in retired_now" 12
    st.Smr.retired_now;
  Alcotest.(check (list int)) "nothing freed without an adopter" [] !freed

(* --- end-to-end: churn on the simulator ----------------------------------- *)

let test_sim_churn_e2e () =
  List.iter
    (fun scheme ->
      let name = Qs_smr.Scheme.to_string scheme in
      let setup =
        { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:3
             ~workload:(Qs_workload.Spec.make ~key_range:32 ~update_pct:50))
          with
          Sim_exp.duration = 150_000;
          seed = 9;
          churn = Some { Sim_exp.every_ops = 40; downtime = 2_000 } }
      in
      let r = Sim_exp.run setup in
      Alcotest.(check int) (name ^ ": no use-after-free under churn") 0
        r.Sim_exp.violations;
      Alcotest.(check bool) (name ^ ": workers actually churned") true
        (r.Sim_exp.churn_events > 0);
      Alcotest.(check bool) (name ^ ": teardown leak check clean") true
        (r.Sim_exp.leak_check = `Ok))
    [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence;
      Qs_smr.Scheme.Qsense ]

(* Scheduler [Churn_at] faults, with no [churn] field: each fired fault
   makes its worker leave and rejoin once, as in the explorer's churn
   plans. *)
let test_sim_churn_faults () =
  List.iter
    (fun scheme ->
      let name = Qs_smr.Scheme.to_string scheme in
      let setup =
        { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:4
             ~workload:(Qs_workload.Spec.make ~key_range:32 ~update_pct:50))
          with
          Sim_exp.duration = 200_000;
          seed = 9;
          faults =
            [ Qs_sim.Scheduler.Churn_at { pid = 1; at = 50_000; ticks = 40_000 };
              Qs_sim.Scheduler.Churn_at { pid = 3; at = 110_000; ticks = 50_000 } ] }
      in
      let r = Sim_exp.run setup in
      Alcotest.(check int) (name ^ ": no use-after-free") 0 r.Sim_exp.violations;
      Alcotest.(check int) (name ^ ": one leave/rejoin per fault") 2
        r.Sim_exp.churn_events;
      Alcotest.(check bool) (name ^ ": teardown leak check clean") true
        (r.Sim_exp.leak_check = `Ok))
    [ Qs_smr.Scheme.Hp; Qs_smr.Scheme.Qsense ]

(* Churn runs are as deterministic as everything else on the simulator. *)
let test_sim_churn_deterministic () =
  let run () =
    let setup =
      { (Sim_exp.default_setup ~ds:Cset.List ~scheme:Qs_smr.Scheme.Qsense
           ~n_processes:3
           ~workload:(Qs_workload.Spec.make ~key_range:32 ~update_pct:50))
        with
        Sim_exp.duration = 100_000;
        seed = 21;
        churn = Some { Sim_exp.every_ops = 30; downtime = 1_500 } }
    in
    let r = Sim_exp.run setup in
    (r.Sim_exp.ops_total, r.Sim_exp.churn_events, r.Sim_exp.final_size)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "two seeded churn runs agree" a b

let suite =
  [ Alcotest.test_case "orphan pool semantics" `Quick test_orphan_pool;
    Alcotest.test_case "qsbr unregister, adoption, slot reuse" `Quick
      test_qsbr_unregister_adopt;
    Alcotest.test_case "ebr unregister, adoption, slot reuse" `Quick
      test_ebr_unregister_adopt;
    Alcotest.test_case "hp adoption respects the hazard filter" `Quick
      test_hp_unregister_adopt;
    Alcotest.test_case "cadence adoption preserves ages" `Quick
      test_cadence_unregister_preserves_ages;
    Alcotest.test_case "cadence frees old orphans at the first scan" `Quick
      test_cadence_adopted_orphans_freed;
    Alcotest.test_case "qsense unregister, adoption under HP+age" `Quick
      test_qsense_unregister_adopt;
    Alcotest.test_case "qsense eviction frees the victim's limbo" `Quick
      test_qsense_eviction_frees_victim_limbo;
    Alcotest.test_case "qsense switch race: entries = exits" `Quick
      test_qsense_switch_race_balanced;
    Alcotest.test_case "degenerate scan thresholds don't divide by zero"
      `Quick test_degenerate_scan_threshold;
    Alcotest.test_case "stats monotone across churn" `Quick
      test_stats_monotone_across_churn;
    Alcotest.test_case "sim churn e2e: safe, leak-free" `Slow
      test_sim_churn_e2e;
    Alcotest.test_case "sim Churn_at faults: leave, rejoin, leak-free" `Quick
      test_sim_churn_faults;
    Alcotest.test_case "sim churn deterministic" `Quick
      test_sim_churn_deterministic
  ]
