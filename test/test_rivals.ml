(* The rival-scheme zoo (DEBRA+ and Hyaline) behind [Smr_intf.S],
   differential-tested against the incumbents:

   - differential battery on the simulator: both rivals run the exact
     explorer cases the incumbents run — fair / PCT / mid-run stall /
     membership churn — and must reach the same verdict class (Pass, which
     carries the arena's use-after-free and double-free oracles and, where
     not gated, linearizability), with coherent monotone stats;
   - bag-capacity differential, mirroring [Test_bags]: [bags=0] runs
     (clamped to capacity 1) must be bit-identical (verdict, ops,
     scheduler steps, freed-id multiset) to [bags=1] runs, and
     capacity-64 runs must pass with the same op budget;
   - positive controls: a Targeted mid-operation stall (the victim frozen
     while pinned, at its own retire hook) OOMs QSBR and EBR but is
     survived by DEBRA+ — neutralization fires, the epoch advances past
     the frozen victim, reclamation continues; and Hyaline reclaims on
     every schedule without ever emitting a scan event (it has no scan
     phase to emit);
   - injected [Neutralize_at] faults are memory-safe across the whole zoo:
     any scheme's operation can be discontinued mid-flight and the
     data-structure unwind handlers keep the arena oracles clean;
   - exact-zero [Gc.minor_words] pins for both rivals' retire hot paths,
     Hyaline's enter/leave and its dereference-decrement path. *)

module Explorer = Qs_harness.Explorer
module Tracer = Qs_obs.Tracer
module Scheme = Qs_smr.Scheme
module Cset = Qs_harness.Cset
module RI = Qs_intf.Runtime_intf
module Spec = Qs_workload.Spec
open Qs_harness

let checki = Alcotest.(check int)
let checkl msg = Alcotest.(check (list int)) msg
let checkb = Alcotest.(check bool)

let rivals = [ Scheme.Debra_plus; Scheme.Hyaline ]
let incumbents = [ Scheme.Qsbr; Scheme.Hp; Scheme.Qsense ]

let diff_case ~ds ~scheme ~strategy ~faults ~bags =
  { (Explorer.default_case ~ds ~scheme ~seed:17) with
    Explorer.ops_per_proc = 100;
    duration = 300_000;
    strategy;
    faults;
    bags }

(* Run one case under a tracer; return the outcome, the sorted freed-id
   multiset and a per-event counter. *)
let run_traced (c : Explorer.case) =
  let tracer =
    Tracer.create ~n_processes:c.Explorer.n_processes ~capacity:(1 lsl 14) ()
  in
  let o = Explorer.run_one ~sink:(Tracer.sink tracer) c in
  let freed = ref [] in
  let counts = Array.make 16 0 in
  Array.iter
    (fun (e : Tracer.entry) ->
      let i = RI.event_index e.Tracer.ev in
      counts.(i) <- counts.(i) + 1;
      match e.Tracer.ev with
      | RI.Ev_free -> freed := e.Tracer.a :: !freed
      | _ -> ())
    (Tracer.to_array tracer);
  (o, List.sort compare !freed, fun ev -> counts.(RI.event_index ev))

let schedule_variants =
  [ ("fair", Explorer.Fair, []);
    ("pct", Explorer.Pct { depth = 3 }, []);
    ( "stall",
      Explorer.Fair,
      [ Qs_sim.Scheduler.Stall_at { pid = 1; at = 60_000; ticks = 120_000 } ] );
    ( "churn",
      Explorer.Fair,
      [ Qs_sim.Scheduler.Churn_at { pid = 1; at = 50_000; ticks = 40_000 };
        Qs_sim.Scheduler.Churn_at { pid = 3; at = 110_000; ticks = 50_000 } ] )
  ]

let check_pass name (o : Explorer.outcome) =
  Alcotest.(check string)
    (name ^ ": verdict") "pass"
    (Explorer.verdict_to_string o.Explorer.verdict)

let check_identical name (a : Explorer.outcome) fa (b : Explorer.outcome) fb =
  check_pass name a;
  check_pass name b;
  checki (name ^ ": same ops") a.Explorer.ops b.Explorer.ops;
  checki (name ^ ": same steps") a.Explorer.steps b.Explorer.steps;
  checkl (name ^ ": same freed-id multiset") fa fb

(* --- the differential battery -------------------------------------------- *)

(* Both rivals, on the list and the BST, across every schedule variant,
   with a bounded arena: the verdict class must match what the incumbents
   reach on the identical schedule (Pass — no UAF, no double free, no OOM,
   and linearizable wherever the check is not gated), the full operation
   budget must complete on fault-free schedules, and the per-scheme stats
   must stay coherent — including across the churn variant's unregister /
   orphan-donation seam. The arena cap doubles as the retired-peak bound:
   a rival whose backlog outgrew the incumbents' would exhaust it. *)
let test_battery () =
  List.iter
    (fun (vname, strategy, faults) ->
      let reference =
        List.map
          (fun scheme ->
            let name =
              Printf.sprintf "%s/list/%s" (Scheme.to_string scheme) vname
            in
            let o, _, _ =
              run_traced
                { (diff_case ~ds:Cset.List ~scheme ~strategy ~faults ~bags:1) with
                  Explorer.capacity = 300 }
            in
            check_pass name o;
            o)
          incumbents
      in
      List.iter
        (fun ds ->
          List.iter
            (fun scheme ->
              let name =
                Printf.sprintf "%s/%s/%s" (Scheme.to_string scheme)
                  (Cset.kind_to_string ds) vname
              in
              let o, freed, _ =
                run_traced
                  { (diff_case ~ds ~scheme ~strategy ~faults ~bags:1) with
                    Explorer.capacity =
                      (if ds = Cset.Bst then 600 else 300) }
              in
              check_pass name o;
              List.iter
                (fun (r : Explorer.outcome) ->
                  checkb
                    (name ^ ": same verdict class as incumbents")
                    true
                    (Explorer.same_class o.Explorer.verdict
                       r.Explorer.verdict))
                reference;
              if faults = [] then
                checki (name ^ ": full op budget") 400 o.Explorer.ops;
              let st = o.Explorer.stats in
              checkb (name ^ ": retires happened") true
                (st.Qs_smr.Smr_intf.retires > 0);
              checkb (name ^ ": frees <= retires") true
                (st.Qs_smr.Smr_intf.frees <= st.Qs_smr.Smr_intf.retires);
              checki
                (name ^ ": retired_now = retires - frees")
                (st.Qs_smr.Smr_intf.retires - st.Qs_smr.Smr_intf.frees)
                st.Qs_smr.Smr_intf.retired_now;
              checkb (name ^ ": peak tracked") true
                (st.Qs_smr.Smr_intf.retired_peak > 0);
              (* the tracer agrees with the stats: one Ev_free per free *)
              checki (name ^ ": trace frees = stats frees")
                st.Qs_smr.Smr_intf.frees (List.length freed))
            rivals)
        [ Cset.List; Cset.Bst ])
    schedule_variants

(* --- bag-capacity differential -------------------------------------------- *)

(* As for QSBR/EBR/HP in [Test_bags]: an old [bags=0] line runs on
   capacity-1 bags, so it must be bit-identical to its [bags=1] twin
   under every schedule variant, churn included. Neither rival
   age-checks individual nodes (DEBRA+ drains whole epochs, Hyaline
   drops whole batches at the last dereference), so capacity-64 runs
   free the same nodes, but their schedule legitimately diverges (bulk
   frees batch their routing effects; Hyaline seals 64x less often):
   only the safety verdict and the op budget are pinned there. *)
let test_bag_capacity_differential () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (vname, strategy, faults) ->
          let name = Printf.sprintf "%s/%s" (Scheme.to_string scheme) vname in
          let run bags =
            let o, freed, _ =
              run_traced (diff_case ~ds:Cset.List ~scheme ~strategy ~faults ~bags)
            in
            (o, freed)
          in
          let o_b0, f_b0 = run 0 in
          let o_b1, f_b1 = run 1 in
          let o_b64, _ = run 64 in
          check_identical (name ^ " bags=0 = bags=1") o_b0 f_b0 o_b1 f_b1;
          check_pass (name ^ " cap64") o_b64;
          checki (name ^ " cap64: same ops") o_b1.Explorer.ops
            o_b64.Explorer.ops)
        schedule_variants)
    rivals

(* --- positive control: the mid-operation stall --------------------------- *)

(* [Sim_exp.delays] stalls land between operations (the victim is unpinned
   — even plain EBR shrugs those off, see [Test_robustness]). The Targeted
   strategy is the sharper knife: freeze the victim at its own retire hook,
   i.e. mid-operation, epoch pinned, for the rest of the run. Epoch-based
   schemes without a recovery mechanism can then never advance and OOM;
   DEBRA+ neutralizes the frozen laggard — poison posted, epoch slot
   force-unpinned by CAS — and reclamation continues. *)

let workload = Spec.updates_50 ~key_range:64

let base ~scheme =
  { (Sim_exp.default_setup ~ds:Cset.List ~scheme ~n_processes:4 ~workload) with
    Sim_exp.duration = 800_000;
    seed = 5;
    capacity = Some 300;
    smr_tweak =
      (fun c ->
        { c with
          Qs_smr.Smr_intf.quiescence_threshold = 16;
          scan_threshold = 16;
          switch_threshold = 48 });
    sched_tweak =
      (fun c ->
        { c with
          Qs_sim.Scheduler.strategy =
            Qs_sim.Scheduler.Targeted
              { victim = 3;
                hook = RI.Hook_retire;
                skip = 5;
                stall = 10_000_000 } }) }

let test_pinned_stall_ooms_epoch_schemes () =
  List.iter
    (fun scheme ->
      let r = Sim_exp.run (base ~scheme) in
      (match r.Sim_exp.failed_at with
      | Some _ -> ()
      | None ->
        Alcotest.failf "%s should OOM with a process frozen mid-operation"
          (Scheme.to_string scheme));
      checki
        (Scheme.to_string scheme ^ ": no use-after-free")
        0 r.Sim_exp.violations)
    [ Scheme.Qsbr; Scheme.Ebr ]

let test_debra_plus_survives_pinned_stall () =
  let r = Sim_exp.run (base ~scheme:Scheme.Debra_plus) in
  (match r.Sim_exp.failed_at with
  | None -> ()
  | Some t -> Alcotest.failf "DEBRA+ ran out of memory at %d" t);
  checki "no use-after-free" 0 r.Sim_exp.violations;
  checkb "neutralization fired" true
    (r.Sim_exp.report.smr.Qs_smr.Smr_intf.neutralizations >= 1);
  checkb "epoch advanced past the frozen victim" true
    (r.Sim_exp.report.smr.Qs_smr.Smr_intf.epoch_advances > 0);
  checkb "kept reclaiming" true (r.Sim_exp.report.smr.Qs_smr.Smr_intf.frees > 0)

(* Hyaline draws the robustness line elsewhere: a victim stalled BETWEEN
   operations costs it nothing (its slot is Inactive — the battery's stall
   variant passes with the same 300-node arena that bounds the incumbents),
   but a victim frozen MID-operation leaves its slot Active forever, every
   batch sealed from then on keeps the victim's reference, and nothing
   frees — the same fate as the epoch schemes, reached through refcounts
   instead of a stuck epoch. The paper's era-tracking extension (Hyaline-1)
   is what buys robustness here; this reproduction implements the basic
   scheme, so the honest assertion is a safe OOM, not survival — which is
   exactly what makes DEBRA+'s neutralization the distinguishing control. *)
let test_hyaline_pinned_stall_ooms () =
  let r = Sim_exp.run (base ~scheme:Scheme.Hyaline) in
  (match r.Sim_exp.failed_at with
  | Some _ -> ()
  | None ->
    Alcotest.fail
      "basic Hyaline should OOM with a handle frozen mid-operation");
  checki "no use-after-free" 0 r.Sim_exp.violations

(* --- positive control: Hyaline has no scan phase ------------------------- *)

let test_hyaline_never_scans () =
  List.iter
    (fun (vname, strategy, faults) ->
      let o, _, count =
        run_traced
          (diff_case ~ds:Cset.List ~scheme:Scheme.Hyaline ~strategy ~faults
             ~bags:1)
      in
      check_pass ("hyaline/" ^ vname) o;
      checki (vname ^ ": zero scan events") 0
        (count RI.Ev_scan_begin + count RI.Ev_scan_end);
      checkb (vname ^ ": reclaims without scanning") true
        (count RI.Ev_free > 0))
    schedule_variants;
  (* control: on the identical case, HP's reclamation IS a scan *)
  let _, _, count =
    run_traced
      (diff_case ~ds:Cset.List ~scheme:Scheme.Hp ~strategy:Explorer.Fair
         ~faults:[] ~bags:1)
  in
  checkb "hp control scans" true (count RI.Ev_scan_begin > 0)

(* --- injected neutralization faults are safe across the zoo -------------- *)

(* [Neutralize_at] discontinues whatever operation is in flight — under any
   scheme, not just DEBRA+. The data-structure unwind handlers must keep
   the arena oracles clean (a never-published node freed, an owned retire
   pair never double-retired) no matter whose retire/insert gets aborted.
   The history, with each aborted operation pending, stays linearizable. *)
let test_injected_neutralization_safe () =
  List.iter
    (fun scheme ->
      List.iter
        (fun ds ->
          List.iter
            (fun seed ->
              let c =
                { (Explorer.default_case ~ds ~scheme ~seed) with
                  Explorer.ops_per_proc = 80;
                  duration = 300_000;
                  faults =
                    Explorer.plan Explorer.Neutralize ~n:4 ~duration:300_000
                      ~seed }
              in
              let name =
                Printf.sprintf "%s/%s/seed%d" (Scheme.to_string scheme)
                  (Cset.kind_to_string ds) seed
              in
              (* a pass includes the check of the history *)
              check_pass name (Explorer.run_one c))
            [ 3; 23 ])
        [ Cset.List; Cset.Bst; Cset.Skiplist; Cset.Hashtable ])
    (incumbents @ rivals)

(* --- exact-zero allocation pins ------------------------------------------ *)

module R = Qs_real.Real_runtime

type fake = Test_bags.fake = { fid : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.fid
end

module Debra_s = Qs_smr.Debra_plus.Make (R) (N)
module Hy_s = Qs_smr.Hyaline.Make (R) (N)

(* DEBRA+'s retire is EBR's plus one [Stdlib.Atomic] flag read: one limbo
   append and counters, no runtime reads (the pinned epoch is cached in a
   plain field). Same harness as the incumbents' pins in [Test_bags]. *)
let test_debra_plus_retire_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 1; freed = 0 } in
  let cfg = Test_bags.base_cfg in
  let t = Debra_s.create cfg ~dummy ~free_bulk:Test_bags.free_bulk in
  let h = Debra_s.register t ~pid:0 in
  Test_bags.check_exact_zero "debra-plus bag retire"
    ~warm:(fun _ -> Debra_s.retire h node)
    ~flush:(fun () -> Debra_s.flush h)
    ~prep:(fun () -> ())
    ~step:(fun _ -> Debra_s.retire h node)
    ()

(* Hyaline's retire between seals is an array store plus meta counters.
   (The seal itself allocates a fresh batch — unlike the limbo bags there
   is no block recycling, because batches free themselves on whatever
   handle drops the last reference — so the pin measures the open-batch
   path: a capacity larger than the whole measured window.) *)
let test_hyaline_retire_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 1; freed = 0 } in
  let cfg =
    { (Test_bags.base_cfg) with
      Qs_smr.Smr_intf.bag_capacity = 1 lsl 16 }
  in
  let t = Hy_s.create cfg ~dummy ~free_bulk:Test_bags.free_bulk in
  let h = Hy_s.register t ~pid:0 in
  Test_bags.check_exact_zero "hyaline open-batch retire"
    ~warm:(fun _ -> Hy_s.retire h node)
    ~flush:(fun () -> Hy_s.flush h)
    ~prep:(fun () -> ())
    ~step:(fun _ -> Hy_s.retire h node)
    ()

(* The per-operation session path: enter installs the handle's preallocated
   [Active Cnil] (no fresh block), leave claims the cell back and walks the
   empty chain. And the dereference-decrement path itself — [drop_ref] on a
   shared batch — is one fetch-and-add; pinned white-box on a batch whose
   count never reaches the zero-crossing inside the window. *)
let test_hyaline_enter_leave_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 1; freed = 0 } in
  let t = Hy_s.create (Test_bags.base_cfg) ~dummy ~free_bulk:Test_bags.free_bulk in
  let h = Hy_s.register t ~pid:0 in
  Test_bags.check_exact_zero "hyaline enter/leave"
    ~warm:(fun _ ->
      Hy_s.manage_state h;
      Hy_s.clear_hps h)
    ~flush:(fun () -> ())
    ~prep:(fun () -> ())
    ~step:(fun _ ->
      Hy_s.manage_state h;
      Hy_s.clear_hps h)
    ();
  let b =
    { Hy_s.data = [| node |];
      count = 1;
      nref = R.atomic ((2 * (Test_bags.warmup + Test_bags.count)) + 2);
      freed = Stdlib.Atomic.make false }
  in
  Test_bags.check_exact_zero "hyaline dereference decrement"
    ~warm:(fun _ -> Hy_s.drop_ref h b)
    ~flush:(fun () -> ())
    ~prep:(fun () -> ())
    ~step:(fun _ -> Hy_s.drop_ref h b)
    ()

(* Regression: [seal] used to push every batch onto the teardown registry
   and nothing removed it, so each freed batch kept its record and its
   data array reachable (~77 words at capacity 64): 200k retires grew the
   instance by ~240k words with nothing left to free. On this
   single-handle loop every batch is freed before the next seal, so
   pruning keeps the registry within 64 entries (~5k words). *)
let test_hyaline_registry_bounded () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 1; freed = 0 } in
  let t = Hy_s.create Test_bags.base_cfg ~dummy ~free_bulk:Test_bags.free_bulk in
  let h = Hy_s.register t ~pid:0 in
  for _ = 1 to 200_000 do
    Hy_s.manage_state h;
    Hy_s.retire h node;
    Hy_s.clear_hps h
  done;
  checki "nothing left to free" 0 (Hy_s.retired_count t);
  let words = Obj.reachable_words (Obj.repr t) in
  checkb (Printf.sprintf "instance reaches %d words (< 20000)" words) true
    (words < 20_000)

let suite =
  [ Alcotest.test_case "differential battery vs incumbents" `Quick test_battery;
    Alcotest.test_case "bag capacity differential: debra+/hyaline" `Quick
      test_bag_capacity_differential;
    Alcotest.test_case "mid-op stall OOMs qsbr and ebr" `Quick
      test_pinned_stall_ooms_epoch_schemes;
    Alcotest.test_case "debra+ survives the mid-op stall (neutralization)"
      `Quick test_debra_plus_survives_pinned_stall;
    Alcotest.test_case "hyaline mid-op stall: safe OOM (no neutralization)"
      `Quick test_hyaline_pinned_stall_ooms;
    Alcotest.test_case "hyaline never scans" `Quick test_hyaline_never_scans;
    Alcotest.test_case "injected neutralization is safe across the zoo"
      `Quick test_injected_neutralization_safe;
    Alcotest.test_case "debra+ retire allocates exactly zero" `Quick
      test_debra_plus_retire_exact_zero;
    Alcotest.test_case "hyaline retire allocates exactly zero" `Quick
      test_hyaline_retire_exact_zero;
    Alcotest.test_case "hyaline enter/leave + decrement allocate zero" `Quick
      test_hyaline_enter_leave_exact_zero;
    Alcotest.test_case "hyaline registry stays bounded" `Quick
      test_hyaline_registry_bounded
  ]
