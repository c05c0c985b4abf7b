(* The same battery for every set implementation (list, skip list, BST,
   hash table), instantiated through the harness's uniform Cset view:
   sequential semantics against a model set, concurrent stress with
   conservation/consistency/use-after-free/leak checks under each
   reclamation scheme. *)

open Qs_sim
module IS = Set.Make (Int)

let sched ?(n_cores = 4) ?(seed = 1) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with
      rooster_interval = Some 2_000;
      rooster_oversleep = 50 }

let set_cfg ?(scheme = Qs_smr.Scheme.Qsense) ?(n = 4) () =
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  { base with
    smr =
      { base.smr with
        quiescence_threshold = 16;
        scan_threshold = 16;
        rooster_interval = 2_000;
        epsilon = 300 } }

module Battery (C : sig
  include Qs_harness.Cset.S

  val validate : ctx -> unit
end) (Info : sig
  val name : string
  val range : int
end) =
struct
  let test_sequential () =
    let s = sched ~n_cores:1 () in
    let set = C.create (set_cfg ~n:1 ()) in
    let ctx = C.register set ~pid:0 in
    let prng = Qs_util.Prng.create ~seed:13 in
    Scheduler.exec s ~pid:0 (fun () ->
        let model = ref IS.empty in
        for _ = 1 to 2_000 do
          let key = Qs_util.Prng.int prng Info.range in
          match Qs_util.Prng.int prng 3 with
          | 0 ->
            let expected = not (IS.mem key !model) in
            if C.insert ctx key then model := IS.add key !model else ();
            if C.insert ctx key = true then
              Alcotest.failf "double insert of %d succeeded" key;
            if expected && not (IS.mem key !model) then
              Alcotest.failf "insert %d lost" key
          | 1 ->
            let expected = IS.mem key !model in
            let got = C.delete ctx key in
            if got then model := IS.remove key !model;
            if got <> expected then
              Alcotest.failf "delete %d: got %b expected %b" key got expected
          | _ ->
            let expected = IS.mem key !model in
            let got = C.search ctx key in
            if got <> expected then
              Alcotest.failf "search %d: got %b expected %b" key got expected
        done;
        Alcotest.(check (list int))
          "final contents match model" (IS.elements !model) (C.to_list ctx);
        C.validate ctx);
    Alcotest.(check int) "no violations" 0 (C.violations set)

  type tally = { mutable ins : int; mutable del : int }

  let stress ~scheme ~seed =
    let n = 4 and ops = 2_500 in
    let s = sched ~n_cores:n ~seed () in
    let set = C.create (set_cfg ~scheme ~n ()) in
    let ctxs = Array.init n (fun pid -> C.register set ~pid) in
    let fill = ref 0 in
    Scheduler.exec s ~pid:0 (fun () ->
        for i = 0 to (Info.range / 2) - 1 do
          if C.insert ctxs.(0) (2 * i) then incr fill
        done);
    let tallies = Array.init n (fun _ -> { ins = 0; del = 0 }) in
    let master = Qs_util.Prng.create ~seed:(seed * 31) in
    let prngs = Array.init n (fun _ -> Qs_util.Prng.split master) in
    for pid = 0 to n - 1 do
      Scheduler.spawn s ~pid (fun () ->
          let prng = prngs.(pid) and tally = tallies.(pid) and ctx = ctxs.(pid) in
          for _ = 1 to ops do
            let key = Qs_util.Prng.int prng Info.range in
            let pct = Qs_util.Prng.percent prng in
            if pct < 25 then begin
              if C.insert ctx key then tally.ins <- tally.ins + 1
            end
            else if pct < 50 then begin
              if C.delete ctx key then tally.del <- tally.del + 1
            end
            else ignore (C.search ctx key)
          done)
    done;
    Scheduler.run_all s;
    (match Scheduler.failures s with
    | [] -> ()
    | (pid, e) :: _ ->
      Alcotest.failf "worker %d failed: %s" pid (Printexc.to_string e));
    Alcotest.(check int) "no use-after-free" 0 (C.violations set);
    Scheduler.exec s ~pid:0 (fun () -> C.validate ctxs.(0));
    let final = Scheduler.exec s ~pid:0 (fun () -> C.to_list ctxs.(0)) in
    Alcotest.(check (list int)) "sorted, no duplicates"
      (List.sort_uniq compare final) final;
    let expected = Array.fold_left (fun acc t -> acc + t.ins - t.del) !fill tallies in
    Alcotest.(check int) "conservation" expected (List.length final);
    Scheduler.exec s ~pid:0 (fun () -> Array.iter C.flush ctxs);
    let r = C.report set in
    Alcotest.(check int) "no double frees" 0 r.double_frees;
    if scheme <> Qs_smr.Scheme.None_ then
      Alcotest.(check int) "outstanding = live after teardown"
        (C.nodes_per_key * List.length final) r.outstanding

  (* Single-key storm: every process hammers insert/delete on the same few
     keys, maximising CAS conflicts and (for the BST) flag/mark helping. *)
  let storm ~seed =
    let n = 4 and ops = 2_000 in
    let s = sched ~n_cores:n ~seed () in
    let set = C.create (set_cfg ~scheme:Qs_smr.Scheme.Qsense ~n ()) in
    let ctxs = Array.init n (fun pid -> C.register set ~pid) in
    let tallies = Array.init n (fun _ -> { ins = 0; del = 0 }) in
    for pid = 0 to n - 1 do
      Scheduler.spawn s ~pid (fun () ->
          let prng = Qs_util.Prng.create ~seed:(seed + (7 * pid)) in
          let tally = tallies.(pid) and ctx = ctxs.(pid) in
          for _ = 1 to ops do
            let key = Qs_util.Prng.int prng 2 in
            if Qs_util.Prng.bool prng then begin
              if C.insert ctx key then tally.ins <- tally.ins + 1
            end
            else if C.delete ctx key then tally.del <- tally.del + 1
          done)
    done;
    Scheduler.run_all s;
    (match Scheduler.failures s with
    | [] -> ()
    | (pid, e) :: _ ->
      Alcotest.failf "worker %d failed: %s" pid (Printexc.to_string e));
    Alcotest.(check int) "no use-after-free" 0 (C.violations set);
    Scheduler.exec s ~pid:0 (fun () -> C.validate ctxs.(0));
    let final = Scheduler.exec s ~pid:0 (fun () -> C.to_list ctxs.(0)) in
    let expected = Array.fold_left (fun acc t -> acc + t.ins - t.del) 0 tallies in
    Alcotest.(check int) "conservation under storm" expected (List.length final)

  let suite =
    Alcotest.test_case (Info.name ^ " single-key storm") `Quick (fun () ->
        storm ~seed:3;
        storm ~seed:17;
        storm ~seed:99)
    :: Alcotest.test_case (Info.name ^ " sequential semantics") `Quick test_sequential
    :: List.map
         (fun scheme ->
           Alcotest.test_case
             (Printf.sprintf "%s stress %s" Info.name
                (Qs_smr.Scheme.to_string scheme))
             `Quick
             (fun () ->
               stress ~scheme ~seed:7;
               stress ~scheme ~seed:23))
         [ Qs_smr.Scheme.None_;
           Qs_smr.Scheme.Hp;
           Qs_smr.Scheme.Qsbr;
           Qs_smr.Scheme.Ebr;
           Qs_smr.Scheme.Cadence;
           Qs_smr.Scheme.Qsense
         ]
end

module Skiplist_tests =
  Battery
    (Qs_ds.Skiplist.Make (Sim_runtime))
    (struct
      let name = "skiplist"
      let range = 64
    end)

module Bst_tests =
  Battery
    (Qs_ds.Bst.Make (Sim_runtime))
    (struct
      let name = "bst"
      let range = 64
    end)

module Hashtable_tests =
  Battery
    (Qs_ds.Hashtable.Make (Sim_runtime))
    (struct
      let name = "hashtable"
      let range = 128
    end)

module HT = Qs_ds.Hashtable.Make (Sim_runtime)

(* Regression: [bucket_of] used to reduce the multiplicative hash with
   [mod], keeping its LOW bits — the poorly mixed end of the product.
   Keys that differ only above the low byte (tenant-prefixed key spaces,
   stride-256 sequences) collided into a handful of buckets: 16 tenants ×
   64 slots hit only 64 of 256 buckets (16 keys each), and stride-256 keys
   all landed in a single bucket. The high-bit shift must spread both. *)
let test_hashtable_bucket_distribution () =
  let table = HT.create (set_cfg ~n:1 ()) in
  let n_buckets = HT.default_buckets in
  let loads = Array.make n_buckets 0 in
  for tenant = 0 to 15 do
    for slot = 0 to 63 do
      let key = (tenant lsl 16) lor slot in
      let b = HT.bucket_index table key in
      loads.(b) <- loads.(b) + 1
    done
  done;
  let hit = Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 loads in
  let max_load = Array.fold_left max 0 loads in
  Alcotest.(check bool) "tenant keys hit most buckets" true (hit >= 200);
  Alcotest.(check bool) "tenant keys: no heavy bucket" true (max_load <= 12);
  let loads = Array.make n_buckets 0 in
  for i = 0 to 511 do
    let b = HT.bucket_index table (i * 256) in
    loads.(b) <- loads.(b) + 1
  done;
  let max_load = Array.fold_left max 0 loads in
  Alcotest.(check bool) "stride-256 keys spread" true (max_load <= 8)

(* Routing is a shift by the power-of-two bucket count's log: any other
   count is rejected at creation. *)
let test_hashtable_odd_bucket_count () =
  Alcotest.check_raises "97 buckets rejected"
    (Invalid_argument "Fib_hash.shift_for: not a positive power of two")
    (fun () -> ignore (HT.create_sized ~n_buckets:97 (set_cfg ~n:1 ())));
  let table = HT.create_sized ~n_buckets:128 (set_cfg ~n:1 ()) in
  for key = 0 to 2_000 do
    let b = HT.bucket_index table key in
    if b < 0 || b >= 128 then Alcotest.failf "key %d out of range: %d" key b
  done

let distribution_suite =
  [ Alcotest.test_case "hashtable bucket distribution" `Quick
      test_hashtable_bucket_distribution;
    Alcotest.test_case "hashtable odd bucket count" `Quick
      test_hashtable_odd_bucket_count ]

let suite =
  Skiplist_tests.suite @ Bst_tests.suite @ Hashtable_tests.suite
  @ distribution_suite
