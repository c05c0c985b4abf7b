(* The domain pool (lib/harness/explorer_pool.ml):

   - seed -> verdict determinism: the same case produces a bit-identical
     outcome (verdict, op count, step count, lin status) whether run solo
     or through a pool of worker domains, across fair, PCT, fault-plan and
     churn schedules — the worker-isolation invariant the pool's whole
     design rests on;
   - results come back complete and in input order;
   - per-case master PRNG streams for distinct seeds never overlap
     (QCheck over seed ranges): sharding a seed range across workers can
     never make two cases draw the same schedule randomness. *)

open Qs_harness
module Scheme = Qs_smr.Scheme
module Prng = Qs_util.Prng

(* A deliberately mixed batch: every strategy family the fast paths in the
   scheduler specialize (fair inline, PCT change-point windows, fault
   bail-outs, churn respawns) — if pooled execution diverged from solo
   anywhere, the place it would show is exactly one of these. *)
let mixed_batch () =
  let base ~ds ~scheme ~seed = Explorer.default_case ~ds ~scheme ~seed in
  [ base ~ds:Cset.List ~scheme:Scheme.Hp ~seed:11;
    base ~ds:Cset.Skiplist ~scheme:Scheme.Cadence ~seed:12;
    { (base ~ds:Cset.List ~scheme:Scheme.Qsense ~seed:13) with
      strategy = Pct { depth = 3 } };
    { (base ~ds:Cset.Bst ~scheme:Scheme.Qsense ~seed:14) with
      faults =
        Explorer.plan Explorer.Stalls ~n:4 ~duration:400_000 ~seed:14 };
    { (base ~ds:Cset.Hashtable ~scheme:Scheme.Cadence ~seed:15) with
      faults = Explorer.plan Explorer.Churn ~n:4 ~duration:400_000 ~seed:15 }
  ]

let check_outcome_eq name (a : Explorer.outcome) (b : Explorer.outcome) =
  Alcotest.(check string)
    (name ^ ": verdict")
    (Explorer.verdict_to_string a.verdict)
    (Explorer.verdict_to_string b.verdict);
  Alcotest.(check int) (name ^ ": ops") a.ops b.ops;
  Alcotest.(check int) (name ^ ": steps") a.steps b.steps

let test_solo_vs_pool_bit_identical () =
  let batch = mixed_batch () in
  let solo = List.map (fun c -> (c, Explorer.run_one c)) batch in
  let pooled = Explorer_pool.outcomes ~jobs:3 batch in
  Alcotest.(check int) "complete" (List.length solo) (List.length pooled);
  List.iter2
    (fun (c, o) (c', o') ->
      Alcotest.(check string)
        "input order preserved" (Explorer.to_string c) (Explorer.to_string c');
      check_outcome_eq (Explorer.to_string c) o o')
    solo pooled

let test_repeat_stability () =
  (* Pooled twice with different job counts: domain scheduling order must
     not leak into outcomes. *)
  let batch = mixed_batch () in
  let a = Explorer_pool.outcomes ~jobs:2 batch in
  let b = Explorer_pool.outcomes ~jobs:4 batch in
  List.iter2 (fun (_, o) (_, o') -> check_outcome_eq "jobs=2 vs jobs=4" o o') a b

(* --- PRNG stream disjointness -------------------------------------------- *)

(* [Explorer.run_one] derives every per-process stream by [Prng.split] from
   a per-case master seeded [c.seed + 7919]. Distinct seeds must give
   streams that never collide — otherwise two cases sharded to different
   workers could replay the same schedule randomness and the coverage
   counts would double-count one neighborhood. 63-bit SplitMix output makes
   a collision within a few hundred draws astronomically unlikely unless
   the derivation is broken (e.g. split returning the parent state), which
   is what this pins. *)
let draws_of_seed ~seed ~procs ~len =
  let master = Prng.create ~seed:(seed + 7919) in
  let streams = Array.init procs (fun _ -> Prng.split master) in
  Array.to_list streams
  |> List.concat_map (fun g -> List.init len (fun _ -> Prng.next g))

let test_streams_disjoint =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"worker PRNG streams never overlap" ~count:50
       QCheck.(pair (int_bound 1_000_000) (int_bound 6 |> map (fun j -> j + 2)))
       (fun (base, range) ->
         let module IS = Set.Make (Int) in
         let all = Hashtbl.create 512 in
         List.iter
           (fun seed ->
             List.iter
               (fun d ->
                 (match Hashtbl.find_opt all d with
                 | Some seed' when seed' <> seed ->
                   QCheck.Test.fail_reportf
                     "draw collision between seeds %d and %d" seed' seed
                 | _ -> ());
                 Hashtbl.replace all d seed)
               (draws_of_seed ~seed ~procs:4 ~len:64))
           (Explorer.seeds ~base ~count:range);
         true))

let suite =
  [ Alcotest.test_case "solo vs pool: bit-identical outcomes" `Slow
      test_solo_vs_pool_bit_identical;
    Alcotest.test_case "jobs count does not change outcomes" `Slow
      test_repeat_stability;
    test_streams_disjoint
  ]
