(* The skip list's own pins, beyond the shared set battery:

   - search, range counts and insert+delete pairs allocate exactly zero
     minor words on the real runtime (QSense, debug checks off, after a
     warm-up) — the traversal is top-level recursion over the context, with
     no per-call closures, and every link an update CASes in is a node or
     the mark box its node was created with;
   - under classic HP a fixed seeded sequence of searches makes an exact
     number of link reads and fenced publishes; sequential insert/delete
     pairs an exact number of reads, publishes and CASes (a delete is one
     positioning pass and a level-by-level unlink, not a pass plus
     sweeps); sequential range counts an exact number of reads and
     publishes;
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
   - a node's tower is sized to its height and an unmarked link is the
     node itself: a node costs at most 18 heap words on the simulator and
     12 on real domains; a recycled node keeps the height it was first
     given, and under churn the live heights stay geometric;
   - a delete abandoned right after its level-0 mark leaves the node
     linked behind canonical marked links, which [validate] accepts, and
     the set's contents and later operations treat it as deleted;
   - a stop above level 0 that is already marked is passed safely under
     classic HP and QSense: the set stays valid, no freed node is
     touched, and the history is linearizable;
   - a range count, the search pass continued at level 0, never leaves a
     node by a marked link: under classic HP with writers racing it, no
     freed node is touched, the set stays valid and a quiescent count of
     every key matches the set;
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

(* A delete abandoned right after its level-0 mark (its marks go top
   down, one CAS per level), as a deleter stalled forever there leaves it:
   the node stays linked at every level behind canonical marked links,
   which [validate] accepts (a fresh mark box in place of the node's
   [mlink] fails it), and the set stays usable around it. *)
let test_stalled_mark_validates () =
  let ctx = counted_set () in
  List.iter (fun k -> ignore (Sc.insert ctx k)) [ 1; 2; 3 ];
  let n = List.find (fun n -> Sc.key n = 2) (Sc.nodes ctx) in
  Counted.cut_after (Sc.top n + 1) (fun () -> ignore (Sc.delete ctx 2));
  Sc.validate ctx;
  Alcotest.(check (list int)) "marked key gone" [ 1; 3 ] (Sc.to_list ctx);
  Alcotest.(check bool) "search" false (Sc.search ctx 2);
  Alcotest.(check bool) "insert" true (Sc.insert ctx 2);
  Sc.validate ctx;
  Alcotest.(check (list int)) "reinserted" [ 1; 2; 3 ] (Sc.to_list ctx)

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
  let reads, publishes =
    counted (fun () ->
        for _ = 1 to 1_000 do
          ignore (Sc.search ctx (Qs_util.Prng.int prng 512))
        done)
  in
  Alcotest.(check int) "publishes of 1,000 searches" 12_269 publishes;
  Alcotest.(check int) "link reads of 1,000 searches" 37_381 reads

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

(* --- exact counts of updates and range counts ---------------------------- *)

(* The even keys of [0, 512) behind a counting context under classic HP. *)
let counted_even_set () =
  let ctx = counted_set () in
  for k = 0 to 255 do
    ignore (Sc.insert ctx (2 * k))
  done;
  ctx

(* Sequential insert/delete pairs of the odd keys in [1, 512), one process
   under classic HP: 20,361 link reads, 6,480 publishes and 1,392 CASes in
   all. An insert is one positioning pass and a CAS per level; a delete
   one pass, a mark per level and the fast unlink's CAS per level, not a
   pass plus sweeps. These counts replace a bound of 1.5 on the ratio of
   the deletes' simulator ticks to the inserts'. *)
let test_update_counts () =
  let ctx = counted_even_set () in
  let ins = ref (0, 0, 0) and del = ref (0, 0, 0) in
  let add r (a, b, c) =
    let x, y, z = !r in
    r := (x + a, y + b, z + c)
  in
  for k = 0 to 255 do
    let key = (2 * k) + 1 in
    add ins (Counted.counted_cas (fun () -> ignore (Sc.insert ctx key)));
    add del (Counted.counted_cas (fun () -> ignore (Sc.delete ctx key)))
  done;
  let card = Alcotest.(triple int int int) in
  Alcotest.check card "insert reads, publishes, CASes" (9_916, 3_360, 464) !ins;
  Alcotest.check card "delete reads, publishes, CASes" (10_445, 3_120, 928) !del

(* 512 counts of [lo, lo + 15], lo in [0, 512), on the even keys: [find]
   for [lo], then the same pass on at level 0. Its level-0 stop's link is
   read for the mark (495 reads, the 17 counts that end at the tail read
   none) and [succs.(1)] is not published again (298 publishes and their
   validation reads). The separate range walk made 27,049 reads and
   10,226 publishes. *)
let test_range_counts () =
  let ctx = counted_even_set () in
  let total = ref 0 in
  let reads, publishes =
    counted (fun () ->
        for lo = 0 to 511 do
          total := !total + Sc.range_count ctx ~lo ~hi:(lo + 15)
        done)
  in
  Alcotest.(check int) "keys counted" 4_032 !total;
  Alcotest.(check int) "link reads" 27_246 reads;
  Alcotest.(check int) "publishes" 9_928 publishes

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
   set: the node, its mark box and its tower, and on the simulator a cell
   per link. *)
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
   simulator (16 cells) and 31.0 on real domains; a boxed unmarked link
   per node cost 5 words more (16.97 on real domains). *)
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
  if sim > 18. || real > 12. then
    Alcotest.failf
      "a node costs %.2f words on the simulator and %.2f on real domains \
       (bounds 18 and 12)"
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
(* [n] processes under long random stalls, on a set that scans on every
   retire. *)
let stall_sched ~n ~seed =
  S.create
    { (S.default_config ~n_cores:n ~seed) with
      rooster_interval = Some 2_000;
      rooster_oversleep = 50;
      cost = { S.default_cost with stall_prob = 0.02; stall_max = 8_000 } }

let scan_every_retire ~n ~scheme =
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  Ss.create { base with smr = { base.smr with scan_threshold = 1 } }

let marked_stop_run ~scheme ~seed =
  let n = 4 and ops = 50 in
  let s = stall_sched ~n ~seed in
  let set = scan_every_retire ~n ~scheme in
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

(* --- the range count never leaves a node by a marked link --------------- *)

(* Classic HP scanning on every retire, long random stalls (as the list's
   probe test): pid 0 counts ranges of 8 keys of [0, 16) while pids 1 and 2
   insert and delete them. A count that followed a marked link (frozen, so
   its validation re-read always passes) could reach a node freed behind
   it. No freed node may be touched, the set must stay valid, and a count
   of [0, max_int] once the run is over must see every key. A shared step
   that moved on through a marked link at level 0 failed 339 of these 450
   seeds (use-after-free, an invalid set, worker failures, livelocks);
   skip-list corpus cases 022, 030, 031, 039, 041, 043 and 044 catch it
   too. The runs end by virtual time 3.3M; a pass looping on freed nodes
   is failed at 16M, which the roosters' wake-ups reach, instead of
   hanging the suite. *)
exception Livelock of int

let range_run ~seed =
  let n = 3 in
  let s = stall_sched ~n ~seed in
  S.set_sink s
    (Some
       { Qs_intf.Runtime_intf.record =
           (fun ~pid:_ ~time ~ev:_ ~a:_ ~b:_ ->
             if time > 16_000_000 then raise (Livelock time)) });
  let set = scan_every_retire ~n ~scheme:Qs_smr.Scheme.Hp in
  let ctxs = Array.init n (fun pid -> Ss.register set ~pid) in
  for pid = 0 to n - 1 do
    let prng = Qs_util.Prng.create ~seed:((seed * 7) + pid) in
    S.spawn s ~pid (fun () ->
        let ctx = ctxs.(pid) in
        for _ = 1 to 500 do
          if pid = 0 then begin
            let lo = Qs_util.Prng.int prng 9 in
            ignore (Ss.range_count ctx ~lo ~hi:(lo + 7))
          end
          else begin
            let key = Qs_util.Prng.int prng 16 in
            if Qs_util.Prng.bool prng then ignore (Ss.insert ctx key)
            else ignore (Ss.delete ctx key)
          end
        done)
  done;
  let name = Printf.sprintf "seed %d" seed in
  (try S.run_all s
   with Livelock t -> Alcotest.failf "%s: livelock, virtual time %d" name t);
  (match S.failures s with
  | [] -> ()
  | (pid, e) :: _ ->
    Alcotest.failf "%s: worker %d failed: %s" name pid (Printexc.to_string e));
  Alcotest.(check int) (name ^ ": no use-after-free") 0 (Ss.violations set);
  let ctx = ctxs.(0) in
  match
    S.exec s ~pid:0 (fun () ->
        Ss.validate ctx;
        (Ss.range_count ctx ~lo:0 ~hi:max_int, List.length (Ss.to_list ctx)))
  with
  | count, keys -> Alcotest.(check int) (name ^ ": quiescent count") keys count
  | exception Failure msg -> Alcotest.failf "%s: %s" name msg

let test_range_no_marked_link () =
  for seed = 1 to 450 do
    range_run ~seed
  done

(* --- churn during a stall ------------------------------------------------- *)

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
    Alcotest.test_case "HP insert/delete counts are exact" `Quick
      test_update_counts;
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
    Alcotest.test_case "HP range count read and publish counts are exact"
      `Quick test_range_counts;
    Alcotest.test_case "empty-bucket probe publishes nothing" `Quick
      test_empty_bucket_probe;
    Alcotest.test_case "words per node fit the node's height" `Quick
      test_words_per_node;
    Alcotest.test_case "a stalled delete's mark validates" `Quick
      test_stalled_mark_validates;
    Alcotest.test_case "a recycled node keeps its top" `Quick
      test_recycled_node_keeps_top;
    Alcotest.test_case "live heights stay geometric under churn" `Quick
      test_live_heights_geometric;
    Alcotest.test_case "a marked upper-level stop is passed safely" `Quick
      test_marked_upper_stop;
    Alcotest.test_case "range count never follows a marked link" `Quick
      test_range_no_marked_link;
    Alcotest.test_case "churn during a stall finishes" `Quick
      test_churn_during_stall ]
