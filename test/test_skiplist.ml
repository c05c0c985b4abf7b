(* The skip list's own pins, beyond the shared set battery:

   - search, range counts and insert+delete pairs allocate exactly zero
     minor words on the real runtime (QSense, debug checks off, after a
     warm-up) — the traversal is top-level recursion over the context, with
     no per-call closures, and every link an update CASes in is one of the
     canonical links its node was created with;
   - on the simulator a sequential, uncontended delete costs at most 1.5x
     the virtual ticks of the matching insert: one positioning pass and a
     level-by-level unlink, not a positioning pass plus repeated sweeps;
   - under classic HP a fixed seeded sequence of searches makes an exact
     number of fenced publishes;
   - a pass reads each link once, reads no link of a stop above level 0,
     and publishes neither the tail nor a node that a slot of a higher
     level holds: a search of the empty set makes one link read per level
     and no publish, and sequential searches stay under a per-search bound
     on reads and publishes;
   - an operation's clear stores only the slots it published: a search
     of the empty set stores no slot at all, and a search of a 256-key
     set at most two per publish (the publish and its clear);
   - neither the range count nor the hash table's search publishes the
     tail: a range count of a one-key set makes one publish (the key's
     node), and a search of an empty hash-table bucket none;
   - a node's tower is sized to its height: a node costs at most 40 heap
     words on the simulator and 20 on real domains; a recycled node keeps
     the height it was first given, and under churn the live heights stay
     geometric;
   - a stop above level 0 that is already marked is passed safely under
     classic HP and QSense: the set stays valid, no freed node is
     touched, and the history is linearizable;
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

let qsense_cfg =
  { (Qs_ds.Set_intf.default_config ~n_processes:1
       ~scheme:Qs_smr.Scheme.Qsense)
    with Qs_ds.Set_intf.debug_checks = false }

(* Every other key of [0, 2 * keys) behind a warmed-up context. *)
let real_set ~keys =
  Qs_real.Real_runtime.register_self 0;
  let ctx = Sr.register (Sr.create qsense_cfg) ~pid:0 in
  for k = 0 to keys - 1 do
    ignore (Sr.insert ctx (2 * k))
  done;
  ctx

let warm_real_set () = real_set ~keys:1_024

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

(* --- link reads and publishes per pass --------------------------------------- *)

module Sc = Qs_ds.Skiplist.Make (Counted)
module Hc = Qs_ds.Hashtable.Make (Counted)

let counted_set () =
  Counted.register_self 0;
  Sc.register
    (Sc.create
       (Qs_ds.Set_intf.default_config ~n_processes:1
          ~scheme:Qs_smr.Scheme.Hp))
    ~pid:0

let counted = Counted.counted
let stored = Counted.stored

(* One read per level for the head's link to the tail, and nothing else:
   the tail is neither published, validated nor read. *)
let test_empty_search_cost () =
  let ctx = counted_set () in
  let levels = (Sc.hp_per_process - 1) / 2 in
  let reads, publishes = counted (fun () -> ignore (Sc.search ctx 42)) in
  Alcotest.(check int) "link reads" levels reads;
  Alcotest.(check int) "publishes" 0 publishes

(* Searches for every key of [0, 512) on a set holding the even ones, one
   process. A pass reads each link once, reads no link of a stop above
   level 0, and publishes neither the tail nor a node a higher level
   holds: 37.1 reads and 12.1 publishes per search. Reading each stop's
   link measured 48.5 reads, and re-reading each link and publishing
   every node entered 72.0 and 24.0. *)
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
  if per reads > 38. || per publishes > 12.5 then
    Alcotest.failf
      "a search makes %.1f link reads and %.1f publishes (bounds 38, 12.5)"
      (per reads) (per publishes)

(* 1,000 searches for keys drawn from [0, 512) by a seeded generator, on
   the set holding the even ones. Classic HP fences every publish, so the
   fence count is the publish count, exactly: a pass publishes each node
   it enters at most once, and neither the tail nor a node a slot of a
   higher level holds. A change to what a pass publishes moves this
   number; one that only saves reads does not, where the ratio of HP to
   leaky search ticks pinned before rose with every read saved. Sizing
   towers to each node's height left it at 12,269. *)
let test_hp_search_publishes () =
  let ctx = counted_set () in
  for k = 0 to 255 do
    ignore (Sc.insert ctx (2 * k))
  done;
  let prng = Qs_util.Prng.create ~seed:1 in
  let _, publishes =
    counted (fun () ->
        for _ = 1 to 1_000 do
          ignore (Sc.search ctx (Qs_util.Prng.int prng 512))
        done)
  in
  Alcotest.(check int) "publishes of 1,000 searches" 12_269 publishes

(* --- hazard-slot stores and the tail ------------------------------------------ *)

(* The empty set's search publishes nothing, so its clear stores nothing.
   Clearing the whole row stored all 33 slots. *)
let test_empty_search_stores () =
  let ctx = counted_set () in
  let publishes, stores = stored (fun () -> ignore (Sc.search ctx 42)) in
  Alcotest.(check int) "publishes" 0 publishes;
  Alcotest.(check int) "slot stores" 0 stores

(* Each publish stores one slot and the clear at most one more per slot
   published: 12.1 publishes per search and at most twice as many stores,
   where clearing the whole row added 33 stores to every search. *)
let test_search_stores () =
  let ctx = counted_set () in
  for k = 0 to 255 do
    ignore (Sc.insert ctx (2 * k))
  done;
  let publishes, stores =
    stored (fun () ->
        for key = 0 to 511 do
          ignore (Sc.search ctx key)
        done)
  in
  if stores > 2 * publishes then
    Alcotest.failf "512 searches store %d slots for %d publishes" stores
      publishes

(* {5} counted over [0, max_int]: the positioning pass publishes the node
   of 5 once, at its top level, and the walk from it meets the tail, which
   it neither publishes nor validates (2 publishes when it did). *)
let test_range_count_tail () =
  let ctx = counted_set () in
  ignore (Sc.insert ctx 5);
  let count = ref 0 in
  let publishes, _ =
    stored (fun () -> count := Sc.range_count ctx ~lo:0 ~hi:max_int)
  in
  Alcotest.(check int) "count" 1 !count;
  Alcotest.(check int) "publishes" 1 publishes

(* An empty bucket's head links straight to the shared tail: the search
   answers without a publish (1 when it published the tail). *)
let test_empty_bucket_probe () =
  Counted.register_self 0;
  let ctx =
    Hc.register
      (Hc.create
         (Qs_ds.Set_intf.default_config ~n_processes:1
            ~scheme:Qs_smr.Scheme.Hp))
      ~pid:0
  in
  let found = ref true in
  let publishes, stores = stored (fun () -> found := Hc.search ctx 42) in
  Alcotest.(check bool) "absent" false !found;
  Alcotest.(check int) "publishes" 0 publishes;
  Alcotest.(check int) "slot stores" 0 stores

(* --- towers sized to the node's height --------------------------------------- *)

let n_keys = 3_000

(* Heap words the set gains per key over [n_keys] inserts into an empty
   set: the node, its two canonical links and its tower, and on the
   simulator a cell per link. *)
let words_per_node ~create ~insert ~run =
  let set, ctx = create () in
  let w0 = Obj.reachable_words (Obj.repr set) in
  run (fun () ->
      for k = 0 to n_keys - 1 do
        ignore (insert ctx k)
      done);
  float_of_int (Obj.reachable_words (Obj.repr set) - w0)
  /. float_of_int n_keys

(* A full-height tower of 16 links cost 159.0 words a node on the
   simulator (16 cells) and 31.0 on real domains. *)
let test_words_per_node () =
  let sim =
    let sched = S.create (S.default_config ~n_cores:1 ~seed:1) in
    words_per_node ~insert:Ss.insert
      ~create:(fun () ->
        let set = Ss.create qsense_cfg in
        (set, Ss.register set ~pid:0))
      ~run:(fun f -> S.exec sched ~pid:0 f)
  in
  let real =
    Qs_real.Real_runtime.register_self 0;
    words_per_node ~insert:Sr.insert
      ~create:(fun () ->
        let set = Sr.create qsense_cfg in
        (set, Sr.register set ~pid:0))
      ~run:(fun f -> f ())
  in
  if sim > 40. || real > 20. then
    Alcotest.failf
      "a node costs %.1f words on the simulator and %.1f on real domains \
       (bounds 40 and 20)"
      sim real

(* Every other key of [0, key_space), then [ops] seeded inserts and
   deletes of keys of [0, key_space) on one real domain under QSense,
   which frees and recycles deleted nodes. [on_nodes] sees the live nodes
   every 1,000 operations. *)
let churn ~key_space ~ops ~on_nodes =
  let ctx = real_set ~keys:(key_space / 2) in
  let prng = Qs_util.Prng.create ~seed:5 in
  for i = 1 to ops do
    let key = Qs_util.Prng.int prng key_space in
    ignore
      (if Qs_util.Prng.bool prng then Sr.insert ctx key else Sr.delete ctx key);
    if i mod 1_000 = 0 then on_nodes (Sr.nodes ctx)
  done;
  Sr.validate ctx;
  ctx

(* A node's height is drawn once: tracked by uid, a node seen again under
   another key (freed and recycled in between) has the [top] it had. *)
let test_recycled_node_keeps_top () =
  let tops = Hashtbl.create 4_096 and reused = ref 0 in
  let see n =
    match Hashtbl.find_opt tops (Sr.uid n) with
    | None -> Hashtbl.add tops (Sr.uid n) (Sr.top n, Sr.key n)
    | Some (top, key) ->
      if Sr.top n <> top then
        Alcotest.failf "node %d: top %d, was %d" (Sr.uid n) (Sr.top n) top;
      if Sr.key n <> key then begin
        incr reused;
        Hashtbl.replace tops (Sr.uid n) (top, Sr.key n)
      end
  in
  let ctx = churn ~key_space:2_048 ~ops:20_000 ~on_nodes:(List.iter see) in
  if !reused < 1_000 then
    Alcotest.failf "only %d recycled nodes seen under a new key" !reused;
  (* a node linked above its top fails validation: lower the [top] (the
     record's third field) of a node linked at level 1 *)
  let n = List.find (fun n -> Sr.top n >= 1) (Sr.nodes ctx) in
  Obj.set_field (Obj.repr n) 2 (Obj.repr 0);
  Alcotest.(check int) "top lowered" 0 (Sr.top n);
  match Sr.validate ctx with
  | () -> Alcotest.fail "validate passed a node linked above its top"
  | exception Failure msg when String.ends_with ~suffix:"above its top 0" msg
    -> ()

(* Which nodes are freed, hence recycled, depends on keys, not on heights,
   so after churn the live heights are still geometric: the share of live
   nodes with top >= h stays within three binomial standard deviations of
   2^-h. *)
let test_live_heights_geometric () =
  let ctx = churn ~key_space:1_024 ~ops:100_000 ~on_nodes:ignore in
  let tops = List.map Sr.top (Sr.nodes ctx) in
  let live = float_of_int (List.length tops) in
  List.iter
    (fun h ->
      let p = 1. /. float_of_int (1 lsl h) in
      let share =
        float_of_int (List.length (List.filter (fun t -> t >= h) tops)) /. live
      in
      let band = 3. *. sqrt (p *. (1. -. p) /. live) in
      if Float.abs (share -. p) > band then
        Alcotest.failf "%.3f of %.0f live nodes have top >= %d (%.3f +- %.3f)"
          share live h p band)
    [ 1; 2; 3 ]

(* --- marked stops above level 0 ---------------------------------------------- *)

(* A pass stops above level 0 without reading the stop's link, so the stop
   may already be marked: an insert links in front of it and a delete's
   fast unlink may run on a victim a losing deleter marked at an upper
   level. Four processes on keys of [0, 8), scanning on every retire,
   under long random stalls (as the list's probe test): pid 0 inserts,
   pids 1 and 2 delete and pid 3 searches. The set must stay valid, no
   node may be touched after its free, and the history must be
   linearizable. A build that also read each such stop's link, only to
   count, found 1,421 of 73,448 upper-level stops marked over these 200
   runs. The test passes too when every stop's link is read and a marked
   stop is snipped. *)
let marked_stop_run ~scheme ~seed =
  let n = 4 and ops = 50 in
  let s =
    S.create
      { (S.default_config ~n_cores:n ~seed) with
        rooster_interval = Some 2_000;
        rooster_oversleep = 50;
        cost = { S.default_cost with stall_prob = 0.02; stall_max = 8_000 } }
  in
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  let set =
    Ss.create { base with smr = { base.smr with scan_threshold = 1 } }
  in
  let ctxs = Array.init n (fun pid -> Ss.register set ~pid) in
  let history = Qs_verify.History.create ~n in
  let at () = S.steps s in
  for pid = 0 to n - 1 do
    let prng = Qs_util.Prng.create ~seed:((seed * 7) + pid) in
    S.spawn s ~pid (fun () ->
        let ctx = ctxs.(pid) in
        for _ = 1 to ops do
          let key = Qs_util.Prng.int prng 8 in
          let op, f =
            match pid with
            | 0 -> (Qs_verify.History.Insert, Ss.insert)
            | 1 | 2 -> (Qs_verify.History.Delete, Ss.delete)
            | _ -> (Qs_verify.History.Search, Ss.search)
          in
          Qs_verify.History.invoke history ~pid ~op ~key ~at:(at ());
          let result = f ctx key in
          Qs_verify.History.respond history ~pid ~result ~at:(at ())
        done)
  done;
  S.run_all s;
  let name =
    Printf.sprintf "%s seed %d" (Qs_smr.Scheme.to_string scheme) seed
  in
  (match S.failures s with
  | [] -> ()
  | (pid, e) :: _ ->
    Alcotest.failf "%s: worker %d failed: %s" name pid (Printexc.to_string e));
  (match S.exec s ~pid:0 (fun () -> Ss.validate ctxs.(0)) with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "%s: %s" name msg);
  Alcotest.(check int) (name ^ ": no use-after-free") 0 (Ss.violations set);
  match
    Qs_verify.Lin_check.check_set ~initial:[]
      (Qs_verify.History.entries history)
  with
  | Qs_verify.Lin_check.Ok -> ()
  | Violation k -> Alcotest.failf "%s: key %d not linearizable" name k

let test_marked_upper_stop () =
  List.iter
    (fun scheme ->
      for seed = 1 to 100 do
        marked_stop_run ~scheme ~seed
      done)
    [ Qs_smr.Scheme.Hp; Qs_smr.Scheme.Qsense ]

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
    Alcotest.test_case "HP search publish count is exact" `Quick
      test_hp_search_publishes;
    Alcotest.test_case "empty search: one read per level, no publish" `Quick
      test_empty_search_cost;
    Alcotest.test_case "sequential search pass cost" `Quick
      test_sequential_pass_cost;
    Alcotest.test_case "empty search stores no hazard slot" `Quick
      test_empty_search_stores;
    Alcotest.test_case "search stores at most two slots per publish" `Quick
      test_search_stores;
    Alcotest.test_case "range count publishes no tail" `Quick
      test_range_count_tail;
    Alcotest.test_case "empty-bucket probe publishes nothing" `Quick
      test_empty_bucket_probe;
    Alcotest.test_case "words per node fit the node's height" `Quick
      test_words_per_node;
    Alcotest.test_case "a recycled node keeps its top" `Quick
      test_recycled_node_keeps_top;
    Alcotest.test_case "live heights stay geometric under churn" `Quick
      test_live_heights_geometric;
    Alcotest.test_case "a marked upper-level stop is passed safely" `Quick
      test_marked_upper_stop;
    Alcotest.test_case "churn during a stall finishes" `Quick
      test_churn_during_stall ]
