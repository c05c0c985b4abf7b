(* Tests of the real-domain runtime: primitives, rooster domains, the
   domain pool, and multi-domain smoke runs of the data structures with
   real atomics/fences (domains timeshare on small machines — correctness,
   not scalability, is what these check). *)

module R = Qs_real.Real_runtime

let test_primitives () =
  let p = R.plain 1 1 in
  R.write p 0 2;
  Alcotest.(check int) "plain rw" 2 (R.read p 0);
  let a = R.atomic 10 in
  R.set a 11;
  Alcotest.(check int) "atomic rw" 11 (R.get a);
  Alcotest.(check bool) "cas ok" true (R.cas a 11 12);
  Alcotest.(check bool) "cas stale" false (R.cas a 11 13);
  Alcotest.(check int) "faa" 12 (R.fetch_and_add a 5);
  Alcotest.(check int) "after faa" 17 (R.get a);
  R.fence ();
  let t0 = R.now () in
  let t1 = R.now () in
  Alcotest.(check bool) "clock monotone" true (t1 >= t0)

(* Atomic arrays: CAS compares by physical equality, a failed CAS leaves
   the element, [aset] stores, and out-of-bounds indices raise like an
   array access. Elements may be floats: the row is never a flat float
   array. *)
let test_atomic_array () =
  let a = R.atomic_array 4 (fun i -> Some i) in
  let v1 = R.aget a 1 in
  Alcotest.(check (option int)) "initialised" (Some 1) v1;
  Alcotest.(check bool) "equal but not the same block" false
    (R.acas a 1 (Some 1) (Some 9));
  Alcotest.(check bool) "failed cas leaves the element" true (R.aget a 1 == v1);
  let w = Some 7 in
  Alcotest.(check bool) "cas on the same block" true (R.acas a 1 v1 w);
  Alcotest.(check bool) "cas stored" true (R.aget a 1 == w);
  Alcotest.(check bool) "stale witness" false (R.acas a 1 v1 None);
  R.aset a 2 w;
  Alcotest.(check bool) "aset" true (R.aget a 2 == w);
  Alcotest.(check (option int)) "neighbours untouched" (Some 3) (R.aget a 3);
  let oob f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "aget past the end" true (oob (fun () -> R.aget a 4));
  Alcotest.(check bool) "acas past the end" true
    (oob (fun () -> R.acas a 4 None None));
  Alcotest.(check bool) "acas below 0" true
    (oob (fun () -> R.acas a (-1) None None));
  let f = R.atomic_array 3 (fun i -> float_of_int i +. 0.5) in
  Alcotest.(check (float 0.)) "float elements" 1.5 (R.aget f 1);
  R.aset f 1 4.25;
  Alcotest.(check (float 0.)) "float aset" 4.25 (R.aget f 1)

(* The CAS runs the write barrier: a young block CASed into an old array
   survives the minor collection that moves it, and a major one. *)
let test_atomic_array_barrier () =
  let a = R.atomic_array 8 (fun _ -> None) in
  Gc.full_major ();
  let young = Some (String.make 16 'q' ^ "!") in
  Alcotest.(check bool) "cas young into old" true (R.acas a 3 None young);
  ignore (Sys.opaque_identity (Array.init 1_000 (fun i -> Some i)));
  Gc.minor ();
  Gc.full_major ();
  ignore (Sys.opaque_identity (Array.init 1_000 (fun i -> Some i)));
  Alcotest.(check (option string)) "read back intact"
    (Some (String.make 16 'q' ^ "!"))
    (R.aget a 3)

let test_atomic_array_domains () =
  let a = R.atomic_array 3 (fun _ -> 0) in
  let n = 100_000 in
  let rec incr () =
    let v = R.aget a 1 in
    if not (R.acas a 1 v (v + 1)) then incr ()
  in
  let work () =
    for _ = 1 to n do
      incr ()
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  Alcotest.(check int) "every increment counted" (2 * n) (R.aget a 1);
  Alcotest.(check (pair int int)) "neighbours untouched" (0, 0)
    (R.aget a 0, R.aget a 2)

(* Exact zero: [aget] + [acas] on preallocated values allocate nothing
   beyond the measurement's own boxed floats. *)
let test_atomic_array_alloc_free () =
  let x = Some 1 and y = Some 2 in
  let a = R.atomic_array 16 (fun _ -> x) in
  let step i =
    let v = R.aget a (i land 15) in
    ignore (R.acas a (i land 15) v (if v == x then y else x))
  in
  for i = 1 to 10_000 do
    step i
  done;
  Gc.minor ();
  let ob = Gc.minor_words () in
  let oa = Gc.minor_words () in
  let overhead = oa -. ob in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    step i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "aget + acas: %.0f words (measurement overhead %.0f)" words
       overhead)
    true (words <= overhead)

(* Half a block's address plus one, as a proper int: [Obj.magic] reads the
   pointer as a tagged int and [lor 1] re-tags it, so the difference of
   two results, doubled, is the distance in bytes. Only compared after
   [Gc.full_major], when blocks no longer move (OCaml 5.1 never
   compacts). *)
let half_addr (x : 'a) = (Obj.magic x : int) lor 1

let min_gap_bytes blocks =
  let a = Array.map half_addr blocks in
  Array.sort compare a;
  let gap = ref max_int in
  for i = 1 to Array.length a - 1 do
    gap := min !gap (2 * (a.(i) - a.(i - 1)))
  done;
  !gap

module Hp_ids = Qs_smr.Hp_array.Make (R) (struct
  type t = int

  let id n = n
end)

(* False-sharing isolation must survive promotion: padded cells, and the
   first slots of the per-process hazard-pointer rows, stay a cache line
   apart in the major heap, where dummy padding blocks would have died. *)
let test_padding_survives_promotion () =
  let cells = Array.init 16 (fun _ -> R.atomic_padded 0) in
  let hp = Hp_ids.create ~n:16 ~k:1 ~dummy:(-1) in
  let rows = Array.init 16 (fun pid -> Hp_ids.row hp ~pid) in
  Gc.full_major ();
  let cell_gap = min_gap_bytes cells and row_gap = min_gap_bytes rows in
  Alcotest.(check bool)
    (Printf.sprintf "padded cells %d B apart" cell_gap)
    true (cell_gap >= 64);
  Alcotest.(check bool)
    (Printf.sprintf "hazard-pointer rows %d B apart" row_gap)
    true (row_gap >= 64);
  Array.iter (fun c -> R.set c 1) cells;
  Alcotest.(check int) "padded cells still atomics" 16
    (Array.fold_left (fun acc c -> acc + R.get c) 0 cells)

let test_self_registration () =
  R.register_self 0;
  Alcotest.(check int) "main is 0" 0 (R.self ());
  let ids =
    Qs_real.Domain_pool.run ~n:3 (fun pid ->
        R.yield ();
        (pid, R.self ()))
  in
  Array.iter (fun (pid, self) -> Alcotest.(check int) "self = pid" pid self) ids

let test_roosters () =
  let r = Qs_real.Roosters.start ~interval_ns:1_000_000 ~n:1 in
  let t0 = Qs_real.Roosters.coarse_now r in
  Unix.sleepf 0.05;
  let w = Qs_real.Roosters.wakeups r in
  let t1 = Qs_real.Roosters.coarse_now r in
  Qs_real.Roosters.stop r;
  Alcotest.(check bool) "woke up" true (w > 0);
  Alcotest.(check bool) "coarse clock advanced" true (t1 > t0);
  (* after stop, no more wakeups *)
  let w_final = Qs_real.Roosters.wakeups r in
  Unix.sleepf 0.02;
  Alcotest.(check int) "stopped" w_final (Qs_real.Roosters.wakeups r)

let smoke ~scheme ~ds () =
  let r =
    Qs_harness.Real_exp.run
      { (Qs_harness.Real_exp.default_setup ~ds ~scheme ~n_domains:3
           ~workload:(Qs_workload.Spec.updates_50 ~key_range:256)) with
        duration_ms = 150;
        seed = 3 }
  in
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "not failed" false r.failed;
  Alcotest.(check bool) "made progress" true (r.ops_total > 100);
  Alcotest.(check int) "no double frees" 0 r.report.double_frees;
  if scheme <> Qs_smr.Scheme.None_ then
    Alcotest.(check bool) "reclaimed memory" true (r.report.smr.frees > 0)

let test_roosters_stop_latency () =
  (* stop must return well under one interval: the rooster loop sleeps in
     small naps and re-checks the stop flag, instead of sleeping the whole
     interval through (the old behaviour made teardown of long-interval
     configurations take up to a full interval) *)
  let interval_ns = 500_000_000 (* 0.5 s *) in
  let r = Qs_real.Roosters.start ~interval_ns ~n:1 in
  Unix.sleepf 0.01;
  let t0 = Unix.gettimeofday () in
  Qs_real.Roosters.stop r;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned in %.3fs, well under the 0.5s interval"
       elapsed)
    true
    (elapsed < 0.25)

let test_domain_pool_generations () =
  (* Workers only record [R.self ()]; the checks run on this domain, since
     Alcotest's printer (a shared Format queue) is not domain-safe. *)
  let results =
    Qs_real.Domain_pool.run_generations ~n:2 ~generations:3
      ~downtime_s:0.002 (fun ~pid:_ ~gen -> (R.self (), gen))
  in
  Alcotest.(check int) "one slot per pid" 2 (Array.length results);
  Array.iteri
    (fun pid gens ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf
           "slot %d ran three generations in order, each registered under pid %d"
           pid pid)
        [ (pid, 0); (pid, 1); (pid, 2) ]
        gens)
    results

let test_real_churn () =
  (* worker churn on real domains: each pid slot runs three successive
     worker generations, every hand-off donating the departing domain's
     limbo lists to the orphan pool; survivors must adopt and the run must
     stay safe and leak-free *)
  List.iter
    (fun scheme ->
      let name = Qs_smr.Scheme.to_string scheme in
      let r =
        Qs_harness.Real_exp.run
          { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
               ~scheme ~n_domains:3
               ~workload:(Qs_workload.Spec.updates_50 ~key_range:128)) with
            duration_ms = 200;
            seed = 7;
            churn = Some { Qs_harness.Real_exp.generations = 3; downtime_ms = 5 } }
      in
      Alcotest.(check int) (name ^ ": no use-after-free under churn") 0
        r.violations;
      Alcotest.(check bool) (name ^ ": not failed") false r.failed;
      Alcotest.(check int) (name ^ ": no double frees") 0
        r.report.double_frees;
      Alcotest.(check bool) (name ^ ": churn actually happened") true
        (r.churn_events > 0);
      Alcotest.(check bool) (name ^ ": made progress") true (r.ops_total > 100))
    [ Qs_smr.Scheme.Qsense; Qs_smr.Scheme.Cadence ]

let test_real_stall_tolerance () =
  (* a stalled domain must not break QSense on the real runtime either *)
  let r =
    Qs_harness.Real_exp.run
      { (Qs_harness.Real_exp.default_setup ~ds:Qs_harness.Cset.List
           ~scheme:Qs_smr.Scheme.Qsense ~n_domains:3
           ~workload:(Qs_workload.Spec.updates_50 ~key_range:128)) with
        duration_ms = 300;
        stall_victim_after_ms = Some 60;
        seed = 5;
        smr_tweak = (fun c -> { c with switch_threshold = 64 }) }
  in
  Alcotest.(check int) "no use-after-free" 0 r.violations;
  Alcotest.(check bool) "not failed" false r.failed

let suite =
  [ Alcotest.test_case "primitives" `Quick test_primitives;
    Alcotest.test_case "atomic array" `Quick test_atomic_array;
    Alcotest.test_case "atomic array write barrier" `Quick
      test_atomic_array_barrier;
    Alcotest.test_case "atomic array on two domains" `Quick
      test_atomic_array_domains;
    Alcotest.test_case "atomic array allocates nothing" `Quick
      test_atomic_array_alloc_free;
    Alcotest.test_case "padding survives promotion" `Quick
      test_padding_survives_promotion;
    Alcotest.test_case "self registration" `Quick test_self_registration;
    Alcotest.test_case "rooster domains" `Quick test_roosters;
    Alcotest.test_case "list/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.List);
    Alcotest.test_case "list/hp on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Hp ~ds:Qs_harness.Cset.List);
    Alcotest.test_case "skiplist/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.Skiplist);
    Alcotest.test_case "bst/qsense on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Qsense ~ds:Qs_harness.Cset.Bst);
    Alcotest.test_case "hashtable/cadence on domains" `Quick
      (smoke ~scheme:Qs_smr.Scheme.Cadence ~ds:Qs_harness.Cset.Hashtable);
    Alcotest.test_case "qsense tolerates stalled domain" `Quick test_real_stall_tolerance;
    Alcotest.test_case "roosters stop promptly" `Quick test_roosters_stop_latency;
    Alcotest.test_case "domain pool generations" `Quick test_domain_pool_generations;
    Alcotest.test_case "churn on real domains" `Slow test_real_churn
  ]
