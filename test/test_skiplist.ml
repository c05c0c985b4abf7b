(* The skip list's own pins, beyond the shared set battery:

   - search, range counts and insert+delete pairs allocate exactly zero
     minor words on the real runtime (QSense, debug checks off, after a
     warm-up) — the traversal is top-level recursion over the context, with
     no per-call closures, and every link an update CASes in is one of the
     canonical links its node was created with;
   - on the simulator a sequential, uncontended delete costs at most 1.5x
     the virtual ticks of the matching insert: one positioning pass and a
     level-by-level unlink, not a positioning pass plus repeated sweeps;
   - on the simulator an uncontended search under classic HP costs at most
     4.5x the same search under the leaky baseline: one fenced publish per
     traversal step, not two;
   - a pass reads each link once, and publishes neither the tail nor a
     node that a slot of a higher level holds: a search of the empty set
     makes one link read per level and no publish, and sequential
     searches stay under a per-search bound on reads and publishes;
   - churn during a stall (QSense in fallback, C = 96, handlers leaving and
     rejoining while the victim is frozen) finishes, safe and leak-free. An
     insert of a key whose old node is still being deleted once stacked
     its new node in front of the old one at an upper level, hiding it
     from the deleter's sweep; the old node was retired while linked,
     freed, recycled, and the level looped forever. A livelock fails the
     run at a virtual-time bound instead of hanging the suite. *)

module Sr = Qs_ds.Skiplist.Make (Qs_real.Real_runtime)
module Ss = Qs_ds.Skiplist.Make (Qs_sim.Sim_runtime)
module S = Qs_sim.Scheduler

(* --- exact-zero allocation pins ------------------------------------------ *)

(* 1,024 keys (every other key of [0, 2048)) behind a warmed-up context. *)
let warm_real_set () =
  Qs_real.Real_runtime.register_self 0;
  let cfg =
    { (Qs_ds.Set_intf.default_config ~n_processes:1
         ~scheme:Qs_smr.Scheme.Qsense)
      with Qs_ds.Set_intf.debug_checks = false }
  in
  let ctx = Sr.register (Sr.create cfg) ~pid:0 in
  for k = 0 to 1_023 do
    ignore (Sr.insert ctx (2 * k))
  done;
  ctx

let check_zero name step =
  for i = 1 to 4_096 do
    step i
  done;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    step i
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check (float 0.0)) (name ^ " allocates zero minor words") 0.0 per_op

let test_search_zero_alloc () =
  let ctx = warm_real_set () in
  check_zero "search" (fun i -> ignore (Sr.search ctx (i land 2_047)))

let test_range_count_zero_alloc () =
  let ctx = warm_real_set () in
  check_zero "range_count" (fun i ->
      let lo = i land 2_047 in
      ignore (Sr.range_count ctx ~lo ~hi:(lo + 16)))

(* Each step inserts an odd (absent) key and deletes it again: the node is
   retired, freed by a QSense scan and recycled by a later insert. *)
let test_insert_delete_zero_alloc () =
  let ctx = warm_real_set () in
  check_zero "insert+delete pair" (fun i ->
      let k = (2 * (i land 1_023)) + 1 in
      if not (Sr.insert ctx k && Sr.delete ctx k) then
        Alcotest.fail "insert+delete of an absent key had no effect")

(* --- simulator cost of a delete ------------------------------------------ *)

(* Sequential insert/delete pairs of the odd keys in [1, 512) against a set
   prefilled with the even ones; one process, no jitter or random stalls,
   so every tick is the operation's own. *)
let test_delete_cost () =
  let sched =
    S.create
      { (S.default_config ~n_cores:1 ~seed:1) with
        cost = { S.default_cost with jitter = 0; stall_prob = 0. } }
  in
  let cfg =
    Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme:Qs_smr.Scheme.Qsense
  in
  let set = Ss.create cfg in
  let ctx = Ss.register set ~pid:0 in
  let timed f =
    let t0 = S.clock_of sched ~pid:0 in
    if not (f ()) then Alcotest.fail "update had no effect";
    S.clock_of sched ~pid:0 - t0
  in
  let ins, del =
    S.exec sched ~pid:0 (fun () ->
        for k = 0 to 255 do
          ignore (Ss.insert ctx (2 * k))
        done;
        let ins = ref 0 and del = ref 0 in
        for k = 0 to 255 do
          let key = (2 * k) + 1 in
          ins := !ins + timed (fun () -> Ss.insert ctx key);
          del := !del + timed (fun () -> Ss.delete ctx key)
        done;
        (!ins, !del))
  in
  let ratio = float_of_int del /. float_of_int ins in
  if ratio > 1.5 then
    Alcotest.failf "delete costs %.2fx insert (%d vs %d ticks over 256 pairs)"
      ratio del ins

(* --- simulator cost of a search under hazard pointers ---------------------- *)

(* Virtual ticks of sequential searches for every key of [0, 512) on a set
   prefilled with the even ones, one process, no jitter or random stalls. *)
let search_ticks scheme =
  let sched =
    S.create
      { (S.default_config ~n_cores:1 ~seed:1) with
        cost = { S.default_cost with jitter = 0; stall_prob = 0. } }
  in
  let set = Ss.create (Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme) in
  let ctx = Ss.register set ~pid:0 in
  S.exec sched ~pid:0 (fun () ->
      for k = 0 to 255 do
        ignore (Ss.insert ctx (2 * k))
      done;
      let t0 = S.clock_of sched ~pid:0 in
      for key = 0 to 511 do
        ignore (Ss.search ctx key)
      done;
      S.clock_of sched ~pid:0 - t0)

(* A pass publishes each node it enters at most once, and classic HP
   fences every publish, so the HP search's cost over the leaky one is the
   per-step publish count. Skipping the tail and the nodes a higher level
   holds measures 2.99x; publishing them too measured 3.60x, and
   publishing [pred] again on every step 6.14x. *)
let test_hp_search_cost () =
  let hp = search_ticks Qs_smr.Scheme.Hp
  and none = search_ticks Qs_smr.Scheme.None_ in
  let ratio = float_of_int hp /. float_of_int none in
  if ratio > 4.5 then
    Alcotest.failf "HP search costs %.2fx the leaky search (%d vs %d ticks)"
      ratio hp none

(* --- link reads and publishes per pass --------------------------------------- *)

(* The real runtime with a counter on every link read and every fence. Under
   classic HP a publish is one fence, and nothing else a search runs
   fences, so the fence count is the publish count. *)
module Counted = struct
  include Qs_real.Real_runtime

  let link_reads = ref 0
  let fences = ref 0

  let aget a i =
    incr link_reads;
    aget a i

  let fence () =
    incr fences;
    fence ()
end

module Sc = Qs_ds.Skiplist.Make (Counted)

let counted_set () =
  Counted.register_self 0;
  Sc.register
    (Sc.create
       (Qs_ds.Set_intf.default_config ~n_processes:1
          ~scheme:Qs_smr.Scheme.Hp))
    ~pid:0

(* Link reads and publishes of [f ()]. *)
let counted f =
  let r0 = !Counted.link_reads and f0 = !Counted.fences in
  f ();
  (!Counted.link_reads - r0, !Counted.fences - f0)

(* One read per level for the head's link to the tail, and nothing else:
   the tail is neither published, validated nor read. *)
let test_empty_search_cost () =
  let ctx = counted_set () in
  let levels = (Sc.hp_per_process - 1) / 2 in
  let reads, publishes = counted (fun () -> ignore (Sc.search ctx 42)) in
  Alcotest.(check int) "link reads" levels reads;
  Alcotest.(check int) "publishes" 0 publishes

(* Searches for every key of [0, 512) on a set holding the even ones, one
   process. A pass reads each link once and publishes neither the tail
   nor a node a higher level holds: 48.5 reads and 12.1 publishes per
   search. Re-reading each link and publishing every node entered
   measured 72.0 and 24.0. *)
let test_sequential_pass_cost () =
  let ctx = counted_set () in
  for k = 0 to 255 do
    ignore (Sc.insert ctx (2 * k))
  done;
  let searches = 512 in
  let reads, publishes =
    counted (fun () ->
        for key = 0 to searches - 1 do
          ignore (Sc.search ctx key)
        done)
  in
  let per n = float_of_int n /. float_of_int searches in
  if per reads > 50. || per publishes > 12.5 then
    Alcotest.failf
      "a search makes %.1f link reads and %.1f publishes (bounds 50, 12.5)"
      (per reads) (per publishes)

(* --- churn during a stall ------------------------------------------------- *)

exception Livelock of int

let duration = 21_000_000

(* 512 keys at 100% updates: the same-key insert/delete races of the
   defect above are frequent, and the upper levels sparse enough that a
   hidden node can stay linked until it is freed. *)
let churn_during_stall ~seed =
  (* Roosters keep firing on a spinning core, so a sink that sees virtual
     time run far past the end of the run ends a livelock. *)
  let bound = 2 * duration in
  let sink =
    { Qs_intf.Runtime_intf.record =
        (fun ~pid:_ ~time ~ev:_ ~a:_ ~b:_ ->
          if time > bound then raise (Livelock time)) }
  in
  Qs_harness.Sim_exp.run
    { (Qs_harness.Sim_exp.default_setup ~ds:Qs_harness.Cset.Skiplist
         ~scheme:Qs_smr.Scheme.Qsense ~n_processes:4
         ~workload:(Qs_workload.Spec.make ~key_range:512 ~update_pct:100))
      with
      duration;
      seed;
      churn = Some { every_ops = 1_000; downtime = 2_000 };
      faults = [ S.Stall_at { pid = 3; at = 6_000_000; ticks = 4_000_000 } ];
      sink = Some sink;
      smr_tweak = (fun c -> { c with switch_threshold = 96 }) }

let test_churn_during_stall () =
  List.iter
    (fun seed ->
      match churn_during_stall ~seed with
      | exception Livelock t ->
        Alcotest.failf "seed %d: livelock, virtual time %d past the run" seed t
      | r ->
        let name = Printf.sprintf "seed %d: " seed in
        Alcotest.(check int) (name ^ "no use-after-free") 0 r.violations;
        Alcotest.(check bool) (name ^ "leak check") true (r.leak_check = `Ok);
        Alcotest.(check bool) (name ^ "fallback entered") true
          (r.report.smr.fallback_entries >= 1);
        Alcotest.(check bool) (name ^ "handlers churned") true
          (r.churn_events > 0))
    (* 129 livelocked the sweep-until-unseen delete *)
    [ 129 ]

let suite =
  [ Alcotest.test_case "search allocates exactly zero" `Quick
      test_search_zero_alloc;
    Alcotest.test_case "range_count allocates exactly zero" `Quick
      test_range_count_zero_alloc;
    Alcotest.test_case "insert+delete pair allocates exactly zero" `Quick
      test_insert_delete_zero_alloc;
    Alcotest.test_case "sim delete costs at most 1.5x insert" `Quick
      test_delete_cost;
    Alcotest.test_case "sim HP search costs at most 4.5x leaky" `Quick
      test_hp_search_cost;
    Alcotest.test_case "empty search: one read per level, no publish" `Quick
      test_empty_search_cost;
    Alcotest.test_case "sequential search pass cost" `Quick
      test_sequential_pass_cost;
    Alcotest.test_case "churn during a stall finishes" `Quick
      test_churn_during_stall ]
