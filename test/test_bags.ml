(* Limbo bags (DEBRA-style batched reclamation; {!Qs_util.Bag}, the one
   limbo representation of QSBR, EBR, DEBRA+, HP, Cadence and QSense):

   - unit tests of the block machinery: seal boundaries, partial final
     bags, capacity-1 bags, HP's always-old filtering scan, the
     oldest-first early-stopping walk, and splicing (donation) of a
     half-sealed deque;
   - a model-based differential: [Bag.scan] against an independent list
     model of the documented semantics, on random workloads, block
     capacities and age predicates (including HP's always-old one);
   - scheme-level bag-capacity differentials on the simulator: the same
     explorer case run with [bags=0] (old corpus lines, clamped to
     capacity 1), capacity-1 bags and default bags. [bags=0] and
     [bags=1] must agree exactly (verdict, ops, steps, freed-id
     multiset); capacity 64 must agree on the safety verdict and the op
     budget;
   - exact-zero [Gc.minor_words] pins: the batched retire path of QSBR,
     EBR, HP, Cadence and QSense (DEBRA+ and Hyaline: [Test_rivals]),
     the HP / QSense-fallback filtering scan, and every scheme's
     [manage_state] + [clear_hps] across Q boundaries allocate nothing in
     steady state. *)

module Bag = Qs_util.Bag

(* --- unit: seal boundaries and partial bags ------------------------------ *)

let checki = Alcotest.(check int)
let checkl msg = Alcotest.(check (list int)) msg
let checkll msg = Alcotest.(check (list (list int))) msg

let to_list t =
  let acc = ref [] in
  Bag.iter (fun x _ts -> acc := x :: !acc) t;
  List.rev !acc

(* The schemes that never age-check nodes push the constant stamp 0. *)
let push0 t x = Bag.push t x 0

(* Collect each bulk free's nodes, one list per [free_bag] call. *)
let record_bags bags data _ts count _stamp =
  bags := Array.to_list (Array.sub data 0 count) :: !bags

let test_plain_boundaries () =
  let src = Bag.source ~capacity:4 0 in
  let t = Bag.create src in
  checki "sealed on push 1" 0 (push0 t 1);
  checki "sealed on push 2" 0 (push0 t 2);
  checki "sealed on push 3" 0 (push0 t 3);
  checki "len before seal" 3 (Bag.length t);
  checki "push 4 seals a full bag" 4 (push0 t 4);
  checki "len after seal" 4 (Bag.length t);
  checki "push 5 opens a new block" 0 (push0 t 5);
  checki "len with partial bag" 5 (Bag.length t);
  (* drain: sealed bag wholesale, then the partial final bag *)
  let bags = ref [] in
  Bag.drain t ~free_bag:(record_bags bags);
  checkll "drain = sealed bag + partial final bag" [ [ 1; 2; 3; 4 ]; [ 5 ] ]
    (List.rev !bags);
  checki "empty after drain" 0 (Bag.length t)

let test_capacity_one () =
  (* capacity clamps to >= 1; a capacity-1 bag seals on every push *)
  let src = Bag.source ~capacity:0 0 in
  checki "capacity clamped to 1" 1 (Bag.capacity src);
  let t = Bag.create src in
  checki "every push seals (1)" 1 (push0 t 10);
  checki "every push seals (2)" 1 (push0 t 11);
  checki "every push seals (3)" 1 (push0 t 12);
  checki "three singleton bags" 3 (Bag.length t);
  let bags = ref [] in
  Bag.drain t ~free_bag:(record_bags bags);
  checkll "three singleton drains" [ [ 10 ]; [ 11 ]; [ 12 ] ] (List.rev !bags)

(* HP's scan: every node is old enough, so the walk visits every sealed
   bag and filters the open block by [keep] alone. *)
let test_plain_scan_compacts () =
  let src = Bag.source ~capacity:3 0 in
  let t = Bag.create src in
  List.iter (fun x -> ignore (push0 t x)) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  let freed = ref [] in
  Bag.scan t
    ~age_ok:(fun _ -> true)
    ~keep:(fun x -> x mod 2 = 0)
    ~free_bag:(fun data _ts count _stamp ->
      for i = 0 to count - 1 do
        freed := data.(i) :: !freed
      done);
  checkl "frees exactly the dropped nodes, walk order" [ 1; 3; 5; 7 ]
    (List.rev !freed);
  checkl "survivors compacted in order" [ 2; 4; 6; 8 ] (to_list t);
  checki "length counts survivors" 4 (Bag.length t)

(* --- unit: the timestamped walk ------------------------------------------ *)

let test_ts_early_stop () =
  let src = Bag.source ~capacity:2 0 in
  let t = Bag.create src in
  List.iter
    (fun (x, s) -> ignore (Bag.push t x s))
    [ (1, 10); (2, 20); (3, 30); (4, 40); (5, 50); (6, 60); (7, 70) ];
  (* sealed chain: [1;2]@20  [3;4]@40  [5;6]@60, open [7]. Cutoff at 40:
     the walk visits the first two bags, stops at stamp 60, and the open
     block's node (ts 70) fails the per-node age check. *)
  let freed = ref [] in
  let stamps = ref [] in
  Bag.scan t
    ~age_ok:(fun s -> s <= 40)
    ~keep:(fun x -> x = 3)
    ~free_bag:(fun data _ts count stamp ->
      stamps := stamp :: !stamps;
      for i = 0 to count - 1 do
        freed := data.(i) :: !freed
      done);
  checkl "frees only bags at or past the cutoff" [ 1; 2; 4 ]
    (List.rev !freed);
  checkl "one seal stamp per freed bag" [ 20; 40 ] (List.rev !stamps);
  (* survivor [3] is prepended before the unwalked remainder *)
  checkl "survivor + unwalked + open, in order" [ 3; 5; 6; 7 ] (to_list t);
  checki "length" 4 (Bag.length t);
  (* a second, all-ages scan with no protection empties the deque *)
  let freed2 = ref [] in
  Bag.scan t
    ~age_ok:(fun _ -> true)
    ~keep:(fun _ -> false)
    ~free_bag:(fun data _ts count _stamp ->
      for i = 0 to count - 1 do
        freed2 := data.(i) :: !freed2
      done);
  checkl "everything ages out eventually" [ 3; 5; 6; 7 ] (List.rev !freed2);
  checki "empty" 0 (Bag.length t)

let test_ts_splice_half_sealed () =
  (* donation of a half-sealed deque: the open block is sealed mid-fill
     (stamped with its newest element) and the whole chain moves by
     pointer splicing; the donor stays alive and usable. *)
  let src_s = Bag.source ~capacity:2 0 in
  let dst_s = Bag.source ~capacity:2 0 in
  let donor = Bag.create src_s in
  let adopter = Bag.create dst_s in
  ignore (Bag.push adopter 0 5);
  List.iter
    (fun (x, s) -> ignore (Bag.push donor x s))
    [ (1, 10); (2, 20); (3, 30) ];
  Bag.splice_into ~src:donor ~dst:adopter;
  checki "donor emptied" 0 (Bag.length donor);
  checki "adopter holds everything" 4 (Bag.length adopter);
  (* adopted chain lands on the sealed tail; the adopter's own open block
     stays open behind it *)
  checkl "sealed chain first, open block last" [ 1; 2; 3; 0 ]
    (to_list adopter);
  (* the donor is still alive: a racing push after donation is benign *)
  checki "donor usable after donation" 0 (Bag.push donor 9 90);
  checki "donor length" 1 (Bag.length donor);
  let bags = ref [] in
  Bag.drain adopter ~free_bag:(record_bags bags);
  checkll "drain: sealed [1;2], half-sealed [3], open [0]"
    [ [ 1; 2 ]; [ 3 ]; [ 0 ] ]
    (List.rev !bags)

(* --- model-based differential --------------------------------------------- *)

(* The walk against an independent model of the documented semantics:
   chunk the pushes into blocks, stamp each full chunk with its newest
   timestamp, walk chunks oldest-first while [age_ok stamp], stop at the
   first young bag; filter the open remainder per node. *)
let scan_model ~cap ~age_ok ~keep pushes =
  let arr = Array.of_list pushes in
  let n = Array.length arr in
  let n_sealed = n / cap in
  let freed = ref [] and kept = ref [] in
  let stopped = ref false in
  for b = 0 to n_sealed - 1 do
    let chunk = Array.sub arr (b * cap) cap in
    let stamp = snd chunk.(cap - 1) in
    if !stopped || not (age_ok stamp) then begin
      stopped := true;
      Array.iter (fun (x, _) -> kept := x :: !kept) chunk
    end
    else
      Array.iter
        (fun (x, _) -> if keep x then kept := x :: !kept else freed := x :: !freed)
        chunk
  done;
  for i = n_sealed * cap to n - 1 do
    let x, s = arr.(i) in
    if age_ok s && not (keep x) then freed := x :: !freed else kept := x :: !kept
  done;
  (List.rev !freed, List.rev !kept)

(* [a = 1] draws HP's always-old predicate: the walk then visits every
   bag and must free exactly the complement of [keep], in push order, and
   keep exactly the [keep]s, in push order (the model's walk order is push
   order when nothing stops it). *)
let prop_scan_matches_model =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 60) (pair (int_range 0 50) (int_range 0 100)))
        (pair (int_range 1 5) (pair (int_range 1 7) (int_range 2 5))))
  in
  QCheck.Test.make
    ~name:
      "Bag.scan = chunked model (early stop, open-block filter, always-old)"
    ~count:500 (QCheck.make gen)
    (fun (pushes, (cap, (a, k))) ->
      let age_ok s = a = 1 || s mod a <> 0 in
      let keep x = x mod k = 0 in
      let src = Bag.source ~capacity:cap 0 in
      let t = Bag.create src in
      List.iter (fun (x, s) -> ignore (Bag.push t x s)) pushes;
      let freed = ref [] in
      Bag.scan t ~age_ok ~keep ~free_bag:(fun data _ts count _stamp ->
          for i = 0 to count - 1 do
            freed := data.(i) :: !freed
          done);
      let m_freed, m_kept = scan_model ~cap ~age_ok ~keep pushes in
      (* freed in walk order; what was not freed is still in the deque,
         survivors first, then the unwalked bags, then the open block *)
      List.rev !freed = m_freed
      && to_list t = m_kept
      && Bag.length t = List.length m_kept)

(* --- scheme-level bag-capacity differential on the simulator ------------- *)

module Explorer = Qs_harness.Explorer
module Tracer = Qs_obs.Tracer
module Scheme = Qs_smr.Scheme
module Cset = Qs_harness.Cset
module RI = Qs_intf.Runtime_intf

let diff_case ~scheme ~strategy ~faults ~bags =
  { (Explorer.default_case ~ds:Cset.List ~scheme ~seed:17) with
    Explorer.ops_per_proc = 100;
    duration = 300_000;
    strategy;
    faults;
    bags }

(* Run one case under a tracer; return the outcome plus the sorted list of
   freed node ids (one entry per Ev_free — the free multiset). *)
let run_traced (c : Explorer.case) =
  let tracer =
    Tracer.create ~n_processes:c.Explorer.n_processes ~capacity:(1 lsl 14) ()
  in
  let o = Explorer.run_one ~sink:(Tracer.sink tracer) c in
  let freed = ref [] in
  Array.iter
    (fun (e : Tracer.entry) ->
      match e.Tracer.ev with
      | RI.Ev_free -> freed := e.Tracer.a :: !freed
      | _ -> ())
    (Tracer.to_array tracer);
  (o, List.sort compare !freed)

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

(* Every case runs three times: [bags=0], [bags=1] and [bags=64]. An old
   corpus or repro line with [bags=0] once selected an element-wise
   reference; it now runs on capacity-1 bags, so it must be
   indistinguishable from its [bags=1] twin (verdict, ops, scheduler
   steps, freed-id multiset) under every schedule, fault plan and churn —
   that pins the meaning of the old lines. Capacity-1 bags seal on every
   push, so every bulk free covers one node. At capacity 64 the bulk free
   performs ONE routing effect ([R.self]) per bag instead of per node —
   the batching win itself — so the simulated schedule legitimately
   diverges after the first sealed bag is freed; there the safety verdict
   is pinned, and the corpus replay covers the rest. *)
let run_capacities scheme (vname, strategy, faults) =
  let name = Printf.sprintf "%s/%s" (Scheme.to_string scheme) vname in
  let run bags = run_traced (diff_case ~scheme ~strategy ~faults ~bags) in
  let o_b0, f_b0 = run 0 in
  let o_b1, f_b1 = run 1 in
  let o_b64, _ = run 64 in
  check_identical (name ^ " bags=0 = bags=1") o_b0 f_b0 o_b1 f_b1;
  check_pass (name ^ " cap64") o_b64;
  (name, o_b1, o_b64)

(* QSBR / EBR / HP never age-check individual nodes: whole-epoch drains
   and hazard filters free the same sets at the same scans whatever the
   capacity, so capacity 64 also completes the same op budget. *)
let test_differential_exact () =
  List.iter
    (fun scheme ->
      List.iter
        (fun variant ->
          let name, o_b1, o_b64 = run_capacities scheme variant in
          checki (name ^ " cap64: same ops") o_b1.Explorer.ops
            o_b64.Explorer.ops)
        schedule_variants)
    [ Scheme.Qsbr; Scheme.Ebr; Scheme.Hp ]

(* Cadence / QSense age-check per BAG (one stamp per block), so a
   capacity-64 walk may defer nodes a capacity-1 walk frees; only the
   safety verdict is pinned across capacities. *)
let test_differential_timestamped () =
  List.iter
    (fun scheme ->
      List.iter
        (fun variant -> ignore (run_capacities scheme variant))
        schedule_variants)
    [ Scheme.Cadence; Scheme.Qsense ]

(* --- exact-zero allocation pins ------------------------------------------ *)

module R = Qs_real.Real_runtime

type fake = { fid : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.fid
end

module Hp_s = Qs_smr.Hazard_pointers.Make (R) (N)
module Qsbr_s = Qs_smr.Qsbr.Make (R) (N)
module Ebr_s = Qs_smr.Ebr.Make (R) (N)
module Cadence_s = Qs_smr.Cadence.Make (R) (N)
module Qsense_s = Qs_smr.Qsense.Make (R) (N)

(* The arena's bulk free, as the structures wire it: count each node. *)
let free_bulk data count =
  for i = 0 to count - 1 do
    let n = data.(i) in
    n.freed <- n.freed + 1
  done

let base_cfg =
  { (Qs_smr.Smr_intf.default_config ~n_processes:2 ~hp_per_process:2) with
    Qs_smr.Smr_intf.quiescence_threshold = 1_000_000;
    scan_threshold = 1_000_000;
    switch_threshold = 1_000_000;
    rooster_interval = max_int;
    epsilon = 0 }

let warmup = 20_000
let count = 10_000

(* Exact-zero measurement: the words allocated across [count] iterations of
   [step] must equal the words allocated by an empty measurement window
   (the boxed float [Gc.minor_words] itself returns) — i.e. the loop body
   allocates NOTHING. [prep] runs between warm-up and measurement (it
   re-seeds protected nodes after a flush). When [prep] changes the
   workload shape — e.g. introduces hazard-protected survivors that need a
   compaction block the retire-only warm-up never demanded — pass
   [~rewarm:true] to re-warm with [step] itself so the block cache reaches
   the real steady-state high-water mark before the window opens. The
   retire-only pins must NOT re-warm: with scans disabled their limbo grows
   monotonically, so the measured window lives off the cache that the
   warm-up + flush stocked, and a re-warm would eat it. *)
let check_exact_zero name ?(rewarm = false) ~warm ~flush ~prep ~step () =
  for i = 1 to warmup do
    warm i
  done;
  flush ();
  prep ();
  if rewarm then
    for i = 1 to warmup do
      step i
    done;
  Gc.minor ();
  let ob = Gc.minor_words () in
  let oa = Gc.minor_words () in
  let overhead = oa -. ob in
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = 1 to count do
    step i
  done;
  let after = Gc.minor_words () in
  let words = after -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f words / %d iterations (measurement overhead %.0f)"
       name words count overhead)
    true
    (words <= overhead)

(* The batched retire path: with thresholds too high for any scan to fire,
   [count] retires — including every 64th that seals a bag and draws a
   fresh block — allocate exactly nothing. The warm-up plus flush stocks
   the block cache, so seals recycle instead of allocating. *)
let test_bag_retire_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let node = { fid = 1; freed = 0 } in
  let nothing () = () in
  let cfg = base_cfg in
  (let t = Qsbr_s.create cfg ~dummy ~free_bulk in
   let h = Qsbr_s.register t ~pid:0 in
   check_exact_zero "qsbr bag retire"
     ~warm:(fun _ -> Qsbr_s.retire h node)
     ~flush:(fun () -> Qsbr_s.flush h)
     ~prep:nothing
     ~step:(fun _ -> Qsbr_s.retire h node) ());
  (let t = Ebr_s.create cfg ~dummy ~free_bulk in
   let h = Ebr_s.register t ~pid:0 in
   check_exact_zero "ebr bag retire"
     ~warm:(fun _ -> Ebr_s.retire h node)
     ~flush:(fun () -> Ebr_s.flush h)
     ~prep:nothing
     ~step:(fun _ -> Ebr_s.retire h node) ());
  (let t = Hp_s.create cfg ~dummy ~free_bulk in
   let h = Hp_s.register t ~pid:0 in
   check_exact_zero "hp bag retire"
     ~warm:(fun _ -> Hp_s.retire h node)
     ~flush:(fun () -> Hp_s.flush h)
     ~prep:nothing
     ~step:(fun _ -> Hp_s.retire h node) ());
  (let t = Cadence_s.create cfg ~dummy ~free_bulk in
   let h = Cadence_s.register t ~pid:0 in
   check_exact_zero "cadence bag retire"
     ~warm:(fun _ -> Cadence_s.retire h node)
     ~flush:(fun () -> Cadence_s.flush h)
     ~prep:nothing
     ~step:(fun _ -> Cadence_s.retire h node) ());
  let t = Qsense_s.create cfg ~dummy ~free_bulk in
  let h = Qsense_s.register t ~pid:0 in
  check_exact_zero "qsense bag retire"
    ~warm:(fun _ -> Qsense_s.retire h node)
    ~flush:(fun () -> Qsense_s.flush h)
    ~prep:nothing
    ~step:(fun _ -> Qsense_s.retire h node) ()

(* The filtering scan paths — the HP scan and QSense's fallback scan,
   where hazard-protected survivors must be carried across each scan —
   with scans actually firing inside the measured window (every 256th
   retire): survivors are compacted into recycled blocks. *)
let scan_cfg =
  { base_cfg with
    Qs_smr.Smr_intf.scan_threshold = 256;
    rooster_interval = 0 (* age check passes immediately: T + eps = 0 *) }

let test_hp_scan_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let pool = Array.init 512 (fun i -> { fid = i; freed = 0 }) in
  let t = Hp_s.create scan_cfg ~dummy ~free_bulk in
  let h = Hp_s.register t ~pid:0 in
  let protected_ = Array.init 2 (fun i -> { fid = 1_000 + i; freed = 0 }) in
  let seed_protected () =
    Array.iteri
      (fun slot n ->
        Hp_s.assign_hp h ~slot n;
        Hp_s.retire h n)
      protected_
  in
  check_exact_zero "hp scan" ~rewarm:true
    ~warm:(fun i -> Hp_s.retire h pool.(i mod 512))
    ~flush:(fun () -> Hp_s.flush h)
    ~prep:seed_protected
    ~step:(fun i -> Hp_s.retire h pool.(i mod 512))
    ()

let test_qsense_fallback_scan_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let pool = Array.init 512 (fun i -> { fid = i; freed = 0 }) in
  (* a small switch threshold sends the scheme into fallback during
     warm-up; with nobody announcing quiescence it stays there, so the
     measured window exercises exactly the fallback filtering scan *)
  let cfg = { scan_cfg with Qs_smr.Smr_intf.switch_threshold = 64 } in
  let t = Qsense_s.create cfg ~dummy ~free_bulk in
  let h = Qsense_s.register t ~pid:0 in
  let protected_ = Array.init 2 (fun i -> { fid = 1_000 + i; freed = 0 }) in
  let seed_protected () =
    Array.iteri
      (fun slot n ->
        Qsense_s.assign_hp h ~slot n;
        Qsense_s.retire h n)
      protected_
  in
  check_exact_zero "qsense fallback scan" ~rewarm:true
    ~warm:(fun i -> Qsense_s.retire h pool.(i mod 512))
    ~flush:(fun () -> Qsense_s.flush h)
    ~prep:seed_protected
    ~step:(fun i -> Qsense_s.retire h pool.(i mod 512))
    ()

(* The per-operation entry and exit of every scheme, across Q
   boundaries: with Q = 4, every fourth [manage_state] announces
   quiescence or attempts the epoch advance, and with one process the
   epochs cycle, so each boundary also runs the grace-period free of an
   (empty) epoch list. *)
let test_manage_state_exact_zero () =
  let dummy = { fid = -1; freed = 0 } in
  let cfg =
    { base_cfg with
      Qs_smr.Smr_intf.n_processes = 1;
      quiescence_threshold = 4 }
  in
  let module D = Qs_smr.Scheme.Dispatch (R) (N) in
  List.iter
    (fun kind ->
      let (module S) = D.make kind in
      let t = S.create cfg ~dummy ~free_bulk in
      let h = S.register t ~pid:0 in
      let step _ =
        S.manage_state h;
        S.clear_hps h
      in
      check_exact_zero
        (Qs_smr.Scheme.to_string kind ^ " manage_state + clear_hps")
        ~warm:step
        ~flush:(fun () -> S.flush h)
        ~prep:ignore ~step ())
    Qs_smr.Scheme.all

let suite =
  [ Alcotest.test_case "bag seal boundaries + partial final bag" `Quick
      test_plain_boundaries;
    Alcotest.test_case "capacity-1 bags seal on every push" `Quick
      test_capacity_one;
    Alcotest.test_case "plain scan compacts survivors, frees in bulk" `Quick
      test_plain_scan_compacts;
    Alcotest.test_case "timestamped walk stops at first young bag" `Quick
      test_ts_early_stop;
    Alcotest.test_case "splice moves a half-sealed deque intact" `Quick
      test_ts_splice_half_sealed;
    QCheck_alcotest.to_alcotest prop_scan_matches_model;
    Alcotest.test_case "bag capacity differential: qsbr/ebr/hp exact" `Quick
      test_differential_exact;
    Alcotest.test_case "bag capacity differential: cadence/qsense" `Quick
      test_differential_timestamped;
    Alcotest.test_case "bag retire path allocates exactly zero" `Quick
      test_bag_retire_exact_zero;
    Alcotest.test_case "hp filtering scan allocates exactly zero" `Quick
      test_hp_scan_exact_zero;
    Alcotest.test_case "qsense fallback scan allocates exactly zero" `Quick
      test_qsense_fallback_scan_exact_zero;
    Alcotest.test_case
      "manage_state + clear_hps allocate exactly zero across Q boundaries"
      `Quick test_manage_state_exact_zero
  ]
