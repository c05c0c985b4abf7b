(* Randomised (qcheck) properties over whole simulator runs and over the
   support libraries:

   - safety net: for arbitrary (seed, structure, scheme, mix), a run has no
     use-after-free, no double free, no leak, and no worker crash;
   - arena bookkeeping invariants under random alloc/free sequences;
   - randomly generated sequential histories are always linearizable;
   - the legal switch threshold really is above all three Property-4 terms. *)

open Qs_harness

let scheme_gen =
  QCheck.Gen.oneofl
    [ Qs_smr.Scheme.Hp; Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Ebr;
      Qs_smr.Scheme.Cadence; Qs_smr.Scheme.Qsense ]

let ds_gen = QCheck.Gen.oneofl [ Cset.List; Cset.Skiplist; Cset.Bst; Cset.Hashtable ]

let run_gen =
  QCheck.Gen.(
    map
      (fun (seed, scheme, ds, update_pct, n) -> (seed, scheme, ds, update_pct, n))
      (tup5 (int_range 1 10_000) scheme_gen ds_gen (int_range 0 100) (int_range 2 6)))

let print_run (seed, scheme, ds, update_pct, n) =
  Printf.sprintf "seed=%d scheme=%s ds=%s updates=%d%% n=%d" seed
    (Qs_smr.Scheme.to_string scheme)
    (Cset.kind_to_string ds)
    update_pct n

let prop_runs_are_safe =
  QCheck.Test.make ~name:"random runs: no UAF, no leak, no crash" ~count:20
    (QCheck.make ~print:print_run run_gen)
    (fun (seed, scheme, ds, update_pct, n) ->
      let workload = Qs_workload.Spec.make ~key_range:48 ~update_pct in
      let r =
        Sim_exp.run
          { (Sim_exp.default_setup ~ds ~scheme ~n_processes:n ~workload) with
            seed;
            duration = 120_000;
            smr_tweak =
              (fun c ->
                { c with
                  quiescence_threshold = 8;
                  scan_threshold = 8;
                  switch_threshold = 64 }) }
      in
      r.violations = 0
      && r.report.double_frees = 0
      && r.failed_at = None
      && r.leak_check = `Ok)

(* --- arena invariants ---------------------------------------------------- *)

type anode = { id : int; mutable free : bool }

let anode_ids = ref 0

module A = Qs_arena.Arena.Make (struct
  type t = anode

  let create () =
    incr anode_ids;
    { id = !anode_ids; free = false }

  let is_free n = n.free
  let set_free n b = n.free <- b
end)

(* A script of allocations, frees and touches, where a free or a touch
   names any node handed out so far — live or already freed, so double
   frees and use-after-free touches are in the mix. A model set of freed
   node ids predicts every counter exactly: a free of a freed node is a
   double free (and changes nothing else), a touch of a freed node is a
   violation, and an allocation while freed nodes exist recycles one of
   them (the most recently freed: the free list is a stack). *)
type arena_op = Alloc | Free of int | Touch of int

let arena_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, return Alloc);
        (2, map (fun i -> Free i) (int_bound 1_000));
        (2, map (fun i -> Touch i) (int_bound 1_000)) ])

let show_arena_op = function
  | Alloc -> "alloc"
  | Free i -> Printf.sprintf "free %d" i
  | Touch i -> Printf.sprintf "touch %d" i

let prop_arena_bookkeeping =
  QCheck.Test.make ~name:"arena: outstanding = allocs - frees; recycling works"
    ~count:200
    QCheck.(
      make ~print:(Print.list show_arena_op)
        Gen.(list_size (int_range 1 200) arena_op_gen))
    (fun script ->
      let module IS = Set.Make (Int) in
      let a = A.create ~n_processes:1 () in
      let h = A.register a ~pid:0 in
      let seen = ref [||] and freed = ref IS.empty and last_freed = ref [] in
      let doubles = ref 0 and uafs = ref 0 and recycled_ok = ref true in
      let pick i = !seen.(i mod Array.length !seen) in
      List.iter
        (function
          | Alloc ->
            let n = A.alloc h in
            (match !last_freed with
            | m :: rest ->
              recycled_ok := !recycled_ok && n == m;
              last_freed := rest
            | [] ->
              recycled_ok := !recycled_ok && not (Array.memq n !seen);
              seen := Array.append !seen [| n |]);
            freed := IS.remove n.id !freed
          | Free _ | Touch _ when Array.length !seen = 0 -> ()
          | Free i ->
            let n = pick i in
            if IS.mem n.id !freed then incr doubles
            else begin
              freed := IS.add n.id !freed;
              last_freed := n :: !last_freed
            end;
            A.free h n
          | Touch i ->
            let n = pick i in
            if IS.mem n.id !freed then incr uafs;
            A.touch h n)
        script;
      let live = Array.length !seen - IS.cardinal !freed in
      !recycled_ok
      && A.outstanding a = live
      && A.allocations a - A.frees a = live
      && A.fresh_nodes a = Array.length !seen
      && A.violations a = !uafs
      && A.double_frees a = !doubles
      && Array.for_all (fun n -> n.free = IS.mem n.id !freed) !seen)

let prop_arena_detects_double_free =
  QCheck.Test.make ~name:"arena: double free and UAF detected" ~count:50
    QCheck.(int_range 1 20)
    (fun k ->
      let a = A.create ~n_processes:1 () in
      let h = A.register a ~pid:0 in
      let n = A.alloc h in
      A.free h n;
      for _ = 1 to k do
        A.free h n
      done;
      A.touch h n;
      A.double_frees a = k && A.violations a = 1)

let test_arena_capacity () =
  let a = A.create ~capacity:3 ~n_processes:1 () in
  let h = A.register a ~pid:0 in
  let n1 = A.alloc h in
  let _ = A.alloc h in
  let _ = A.alloc h in
  Alcotest.check_raises "capacity enforced" Qs_arena.Arena.Exhausted (fun () ->
      ignore (A.alloc h));
  (* freeing lets allocation proceed via the free list *)
  A.free h n1;
  let n4 = A.alloc h in
  Alcotest.(check bool) "recycled the freed node" true (n1 == n4);
  Alcotest.(check bool) "recycled node reads live" false n4.free

(* Steady-state recycling: once a working set of nodes has been created,
   alloc/free cycles are served entirely from the free list — [fresh_nodes]
   stops growing, every free is allocation-free (vector push, no cons), the
   reuse ratio climbs towards 1, and nothing is ever double-freed. *)
let test_arena_recycling () =
  let a = A.create ~n_processes:1 () in
  let h = A.register a ~pid:0 in
  let ws = 64 in
  let live = Array.init ws (fun _ -> A.alloc h) in
  let fresh_after_warmup = A.fresh_nodes a in
  Alcotest.(check int) "warm-up creates the working set" ws fresh_after_warmup;
  let cycles = 1_000 in
  Gc.minor ();
  let before = Gc.minor_words () in
  for i = 0 to cycles - 1 do
    let slot = i mod ws in
    A.free h live.(slot);
    live.(slot) <- A.alloc h
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "fresh_nodes stopped growing" fresh_after_warmup
    (A.fresh_nodes a);
  Alcotest.(check int) "no double frees" 0 (A.double_frees a);
  Alcotest.(check int) "outstanding unchanged" ws (A.outstanding a);
  Alcotest.(check bool)
    (Printf.sprintf "reuse ratio > 0.9 (got %.3f)" (A.reuse_ratio a))
    true
    (A.reuse_ratio a > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "alloc/free cycles allocate (%.0f words / %d cycles)"
       words cycles)
    true (words < 1_000.)

(* --- generated sequential histories are linearizable --------------------- *)

let seq_history_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (tup2 (int_range 0 2) (int_range 0 5) (* op kind, key *)))

let prop_sequential_histories_linearizable =
  QCheck.Test.make ~name:"sequential histories always linearizable" ~count:200
    (QCheck.make seq_history_gen)
    (fun script ->
      let module IS = Set.Make (Int) in
      let model = ref IS.empty in
      let clock = ref 0 in
      let entries =
        List.map
          (fun (opk, key) ->
            let inv = !clock in
            incr clock;
            let res = !clock in
            incr clock;
            let op, result =
              match opk with
              | 0 ->
                let r = not (IS.mem key !model) in
                model := IS.add key !model;
                (Qs_verify.History.Insert, r)
              | 1 ->
                let r = IS.mem key !model in
                model := IS.remove key !model;
                (Qs_verify.History.Delete, r)
              | _ -> (Qs_verify.History.Search, IS.mem key !model)
            in
            { Qs_verify.History.pid = 0; op; key; inv; response = Some { res; result } })
          script
      in
      Qs_verify.Lin_check.is_linearizable ~initial:[] entries)

let prop_legal_threshold_dominates =
  QCheck.Test.make ~name:"legal C exceeds all Property-4 terms" ~count:200
    QCheck.(quad (int_range 1 64) (int_range 1 64) (int_range 1 64) (int_range 1 5_000))
    (fun (n, k, q, t) ->
      let cfg =
        { (Qs_smr.Smr_intf.default_config ~n_processes:n ~hp_per_process:k) with
          quiescence_threshold = q;
          rooster_interval = t;
          removes_per_op_max = 2 }
      in
      let c = Qs_smr.Smr_intf.legal_switch_threshold cfg in
      c > 2 * q
      && c > (n * k) + t
      && c > (k + t + cfg.scan_threshold) / 2)

let suite =
  [ QCheck_alcotest.to_alcotest prop_runs_are_safe;
    QCheck_alcotest.to_alcotest prop_arena_bookkeeping;
    QCheck_alcotest.to_alcotest prop_arena_detects_double_free;
    Alcotest.test_case "arena capacity + recycling" `Quick test_arena_capacity;
    Alcotest.test_case "arena steady-state reuse is allocation-free" `Quick
      test_arena_recycling;
    QCheck_alcotest.to_alcotest prop_sequential_histories_linearizable;
    QCheck_alcotest.to_alcotest prop_legal_threshold_dominates
  ]
