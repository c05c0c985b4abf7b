(* The linearizability checker itself (positive and negative hand-crafted
   histories, pending operations, 10,000-entry histories, and a
   differential against the exponential search it replaced), then
   end-to-end: explorer runs that record real concurrent histories on every
   data structure and check them. *)

open Qs_verify
open Qs_harness

let e pid op key result inv res : History.entry =
  { pid; op; key; inv; response = Some { res; result } }

let pending pid op key inv : History.entry = { pid; op; key; inv; response = None }

let test_checker_sequential_ok () =
  let h =
    [ e 0 History.Insert 1 true 0 1;
      e 0 History.Search 1 true 2 3;
      e 0 History.Delete 1 true 4 5;
      e 0 History.Search 1 false 6 7
    ]
  in
  Alcotest.(check bool) "sequential history ok" true
    (Lin_check.is_linearizable ~initial:[] h)

let test_checker_rejects_wrong_result () =
  let h = [ e 0 History.Search 1 true 0 1 ] in
  Alcotest.(check bool) "search of absent key returning true" false
    (Lin_check.is_linearizable ~initial:[] h);
  Alcotest.(check bool) "ok with initial fill" true
    (Lin_check.is_linearizable ~initial:[ 1 ] h)

let test_checker_rejects_non_linearizable () =
  (* p0: insert(1)=true completes before p1 starts; p1 then reads absent. *)
  let h =
    [ e 0 History.Insert 1 true 0 10; e 1 History.Search 1 false 20 30 ]
  in
  Alcotest.(check bool) "stale read after completed insert" false
    (Lin_check.is_linearizable ~initial:[] h);
  (* but if the operations overlap, either order is a valid linearization *)
  let h' =
    [ e 0 History.Insert 1 true 0 25; e 1 History.Search 1 false 20 30 ]
  in
  Alcotest.(check bool) "overlapping ops may order either way" true
    (Lin_check.is_linearizable ~initial:[] h')

let test_checker_double_insert () =
  (* two concurrent successful inserts of the same key cannot both succeed *)
  let h =
    [ e 0 History.Insert 5 true 0 10; e 1 History.Insert 5 true 0 10 ]
  in
  Alcotest.(check bool) "two successful inserts" false
    (Lin_check.is_linearizable ~initial:[] h);
  let h' =
    [ e 0 History.Insert 5 true 0 10; e 1 History.Insert 5 false 0 10 ]
  in
  Alcotest.(check bool) "one must fail" true
    (Lin_check.is_linearizable ~initial:[] h')

let test_checker_keys_independent () =
  (* a violation on key 7 is found even among unrelated traffic *)
  let h =
    [ e 0 History.Insert 1 true 0 1;
      e 0 History.Search 7 true 2 3;
      e 1 History.Delete 2 false 0 5
    ]
  in
  (match Lin_check.check_set ~initial:[] h with
  | Lin_check.Violation 7 -> ()
  | _ -> Alcotest.fail "expected a violation on key 7");
  Alcotest.(check bool) "fine once key 7 is prefilled" true
    (Lin_check.is_linearizable ~initial:[ 7 ] h)

(* --- qcheck properties over the checker ---------------------------------- *)

module IS = Set.Make (Int)

(* A valid sequential history over a few keys, with tight intervals. *)
let sequential_history script =
  let model = ref IS.empty in
  let clock = ref 0 in
  List.map
    (fun (opk, key) ->
      let inv = !clock in
      incr clock;
      let res = !clock in
      incr clock;
      let op, result =
        match opk mod 3 with
        | 0 ->
          let r = not (IS.mem key !model) in
          model := IS.add key !model;
          (History.Insert, r)
        | 1 ->
          let r = IS.mem key !model in
          model := IS.remove key !model;
          (History.Delete, r)
        | _ -> (History.Search, IS.mem key !model)
      in
      e 0 op key result inv res)
    script

let script_gen = QCheck.Gen.(list_size (int_range 2 30) (tup2 (int_range 0 2) (int_range 0 3)))

(* Widening intervals only adds legal linearizations: each operation's
   original linearization point stays inside its widened interval, so the
   original order remains a witness. *)
let prop_widening_preserves_linearizability =
  QCheck.Test.make ~name:"interval widening preserves linearizability" ~count:200
    (QCheck.make QCheck.Gen.(tup2 script_gen (int_range 0 50)))
    (fun (script, width) ->
      let entries = sequential_history script in
      let prng = Qs_util.Prng.create ~seed:(width + List.length script) in
      let widened =
        List.map
          (fun (x : History.entry) ->
            let r = Option.get x.response in
            { x with
              inv = x.inv - Qs_util.Prng.int prng (width + 1);
              response =
                Some { r with res = r.res + Qs_util.Prng.int prng (width + 1) } })
          entries
      in
      Lin_check.is_linearizable ~initial:[] widened)

(* In a strictly sequential history the execution is forced, so flipping any
   single result must be detected. *)
let prop_mutation_detected =
  QCheck.Test.make ~name:"flipped result in sequential history detected" ~count:200
    (QCheck.make QCheck.Gen.(tup2 script_gen (int_range 0 1_000)))
    (fun (script, pick) ->
      let entries = sequential_history script in
      let n = List.length entries in
      QCheck.assume (n > 0);
      let idx = pick mod n in
      let mutated =
        List.mapi
          (fun i (x : History.entry) ->
            match x.response with
            | Some r when i = idx ->
              { x with response = Some { r with result = not r.result } }
            | _ -> x)
          entries
      in
      not (Lin_check.is_linearizable ~initial:[] mutated))

(* A key's history is long but the operations open at once are few: [n]
   operations on key 1, linearizable by construction. Operation k runs on
   process k mod 4 and takes effect at 10k, inside an interval widened by up
   to 19 ticks either side, so it overlaps its neighbours but not its
   process's previous operation. *)
let long_history n =
  let prng = Qs_util.Prng.create ~seed:n in
  let script = List.init n (fun _ -> (Qs_util.Prng.int prng 3, 1)) in
  List.mapi
    (fun k (x : History.entry) ->
      let r = Option.get x.response in
      { x with
        pid = k mod 4;
        inv = (10 * k) - Qs_util.Prng.int prng 20;
        response = Some { r with res = (10 * k) + Qs_util.Prng.int prng 20 } })
    (sequential_history script)

let test_checker_long_histories () =
  let t0 = Sys.time () in
  Alcotest.(check bool) "10,000 overlapping entries on one key" true
    (Lin_check.is_linearizable ~initial:[] (long_history 10_000));
  let dt = Sys.time () -. t0 in
  if dt > 1.0 then Alcotest.failf "10,000 entries took %.2f s CPU (bound 1 s)" dt;
  let flipped =
    List.mapi
      (fun i (x : History.entry) ->
        match x.response with
        | Some r when i = 5_000 ->
          { x with response = Some { r with result = not r.result } }
        | _ -> x)
      (sequential_history (List.init 10_000 (fun i -> (i mod 3, 1))))
  in
  match Lin_check.check_set ~initial:[] flipped with
  | Lin_check.Violation 1 -> ()
  | _ -> Alcotest.fail "a flipped result mid-way through 10,000 entries passed"

(* --- reference model ----------------------------------------------------- *)

(* The Wing-Gong search the checker replaced, kept as a reference for short
   histories: look for a linear order of every completed entry and any
   subset of the pending ones in which an entry may be linearized only if
   no other entry still to be linearized responded before its invocation.
   Memoised on (bitmask of entries still to linearize, state), so at most
   60 entries. *)
let reference_check_key ~present0 (entries : History.entry list) =
  let apply (x : History.entry) present =
    match (x.response, x.op) with
    | None, History.Insert -> Some true
    | None, History.Delete -> Some false
    | None, History.Search -> Some present
    | Some { result; _ }, History.Search ->
      if result = present then Some present else None
    | Some { result; _ }, History.Insert ->
      if result <> present then Some true else None
    | Some { result; _ }, History.Delete ->
      if result = present then Some false else None
  in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  assert (n <= 60);
  let res =
    Array.map
      (fun (x : History.entry) ->
        match x.response with Some r -> r.res | None -> max_int)
      arr
  in
  (* bit set: a completed entry; the search is done once these are
     linearized *)
  let completed = ref 0 in
  Array.iteri
    (fun i (x : History.entry) ->
      if x.response <> None then completed := !completed lor (1 lsl i))
    arr;
  let completed = !completed in
  let seen = Hashtbl.create 1024 in
  let minimal mask i =
    let rec go j =
      j >= n
      || ((j = i || mask land (1 lsl j) = 0 || res.(j) >= arr.(i).inv)
         && go (j + 1))
    in
    go 0
  in
  (* mask: bit set = still to linearize *)
  let rec search mask present =
    mask land completed = 0
    || (not (Hashtbl.mem seen (mask, present)))
       && begin
         Hashtbl.add seen (mask, present) ();
         let rec try_ops i =
           i < n
           && ((mask land (1 lsl i) <> 0
               && minimal mask i
               &&
               match apply arr.(i) present with
               | Some p -> search (mask lxor (1 lsl i)) p
               | None -> false)
              || try_ops (i + 1))
         in
         try_ops 0
       end
  in
  search ((1 lsl n) - 1) present0

(* A random one-key history of up to 14 entries on 1-4 processes: each
   process runs its entries one after another, with random gaps and
   lengths, so entries of different processes overlap; about one in ten is
   pending (the process then moves on, as after a neutralization), and
   results are random. *)
let one_key_history_gen =
  QCheck.Gen.(
    tup3 (int_range 1 4) bool
      (list_size (int_range 1 14)
         (tup6 (int_range 0 3) (int_range 0 2) bool (int_range 0 4)
            (int_range 0 8) (int_range 0 9))))

let one_key_history (procs, _, script) =
  let clock = Array.make procs 0 in
  List.map
    (fun (p, opk, result, gap, len, pend) ->
      let pid = p mod procs in
      let op = [| History.Insert; History.Delete; History.Search |].(opk) in
      let inv = clock.(pid) + gap in
      if pend = 0 then begin
        clock.(pid) <- inv + 1;
        pending pid op 1 inv
      end
      else begin
        clock.(pid) <- inv + len + 1;
        e pid op 1 result inv (inv + len)
      end)
    script

let prop_matches_reference =
  QCheck.Test.make ~name:"checker agrees with the reference search" ~count:2_000
    (QCheck.make one_key_history_gen)
    (fun ((_, present0, _) as g) ->
      let h = one_key_history g in
      let initial = if present0 then [ 1 ] else [] in
      Lin_check.is_linearizable ~initial h
      = reference_check_key ~present0
          (List.filter
             (fun (x : History.entry) -> x.response <> None || x.op <> History.Search)
             h))

(* --- pending operations -------------------------------------------------- *)

let test_pending_may_take_effect () =
  (* p1's insert never answered; p0 later finds the key either way *)
  let after = e 0 History.Search 1 true 20 30 in
  let absent = e 0 History.Search 1 false 20 30 in
  Alcotest.(check bool) "a pending insert may take effect" true
    (Lin_check.is_linearizable ~initial:[] [ pending 1 History.Insert 1 0; after ]);
  Alcotest.(check bool) "or may not" true
    (Lin_check.is_linearizable ~initial:[] [ pending 1 History.Insert 1 0; absent ]);
  Alcotest.(check bool) "a pending delete likewise" true
    (Lin_check.is_linearizable ~initial:[ 1 ]
       [ pending 1 History.Delete 1 0; e 0 History.Search 1 false 20 30 ]);
  Alcotest.(check bool) "a pending search is dropped" true
    (Lin_check.is_linearizable ~initial:[] [ pending 1 History.Search 1 0; absent ])

let test_pending_not_before_invocation () =
  (* the search completed before the insert was invoked, so it cannot see
     the insert's effect *)
  Alcotest.(check bool) "no effect before the invocation" false
    (Lin_check.is_linearizable ~initial:[]
       [ e 0 History.Search 1 true 0 10; pending 1 History.Insert 1 20 ])

let test_pending_keeps_completed_constrained () =
  (* a pending insert can only add the key, and only once *)
  Alcotest.(check bool) "completed order still enforced" false
    (Lin_check.is_linearizable ~initial:[]
       [ pending 1 History.Insert 1 0;
         e 0 History.Insert 1 true 10 20;
         e 0 History.Search 1 false 30 40 ]);
  Alcotest.(check bool) "completed results still checked" false
    (Lin_check.is_linearizable ~initial:[]
       [ pending 2 History.Insert 1 0;
         e 0 History.Insert 1 true 10 20;
         e 1 History.Insert 1 true 30 40 ]);
  Alcotest.(check bool) "one pending effect at most" false
    (Lin_check.is_linearizable ~initial:[]
       [ pending 1 History.Insert 1 0;
         e 0 History.Search 1 true 10 20;
         e 0 History.Delete 1 true 30 40;
         e 0 History.Search 1 true 50 60;
         e 0 History.Delete 1 true 70 80;
         e 0 History.Search 1 true 90 100 ])

(* --- end-to-end: real histories from the simulator ---------------------- *)

let lin_case name ds =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (scheme, seed) ->
          let c =
            { (Explorer.default_case ~ds ~scheme ~seed) with
              Explorer.key_range = 8;
              ops_per_proc = 400;
              duration = 2_000_000 }
          in
          (* a pass includes the check of the history *)
          Alcotest.(check string) (Explorer.to_string c ^ ": verdict") "pass"
            (Explorer.verdict_to_string (Explorer.run_one c).verdict))
        [ (Qs_smr.Scheme.Qsense, 3);
          (Qs_smr.Scheme.Qsbr, 4);
          (Qs_smr.Scheme.Hp, 5);
          (Qs_smr.Scheme.Cadence, 6)
        ])

(* The history's stamps are meta-level reads of the step index: recording
   one moves no schedule. *)
let test_history_schedule_neutral () =
  List.iter
    (fun (ds, scheme) ->
      let workload = Qs_workload.Spec.make ~key_range:64 ~update_pct:50 in
      let setup =
        { (Sim_exp.default_setup ~ds ~scheme ~n_processes:4 ~workload) with
          Sim_exp.duration = 100_000;
          seed = 11 }
      in
      let history = History.create ~n:4 in
      let off = Sim_exp.measure setup in
      let on = Sim_exp.measure { setup with history = Some history } in
      let name = Cset.kind_to_string ds ^ "/" ^ Qs_smr.Scheme.to_string scheme in
      Alcotest.(check int) (name ^ ": equal steps") off.steps on.steps;
      Alcotest.(check int) (name ^ ": one entry per op") on.ops_total
        (List.length (History.entries history)))
    [ (Cset.List, Qs_smr.Scheme.Qsense); (Cset.Bst, Qs_smr.Scheme.Debra_plus) ]

let suite =
  [ Alcotest.test_case "checker: sequential ok" `Quick test_checker_sequential_ok;
    Alcotest.test_case "checker: wrong result rejected" `Quick test_checker_rejects_wrong_result;
    Alcotest.test_case "checker: real-time order enforced" `Quick test_checker_rejects_non_linearizable;
    Alcotest.test_case "checker: double insert rejected" `Quick test_checker_double_insert;
    Alcotest.test_case "checker: keys independent" `Quick test_checker_keys_independent;
    Alcotest.test_case "checker: long histories" `Quick test_checker_long_histories;
    Alcotest.test_case "checker: pending op may or may not take effect" `Quick
      test_pending_may_take_effect;
    Alcotest.test_case "checker: pending op not before its invocation" `Quick
      test_pending_not_before_invocation;
    Alcotest.test_case "checker: completed ops stay constrained" `Quick
      test_pending_keeps_completed_constrained;
    Alcotest.test_case "history is schedule-neutral" `Quick
      test_history_schedule_neutral;
    lin_case "list linearizable" Cset.List;
    lin_case "skiplist linearizable" Cset.Skiplist;
    lin_case "bst linearizable" Cset.Bst;
    lin_case "hashtable linearizable" Cset.Hashtable;
    QCheck_alcotest.to_alcotest prop_widening_preserves_linearizability;
    QCheck_alcotest.to_alcotest prop_mutation_detected;
    QCheck_alcotest.to_alcotest prop_matches_reference
  ]
