(* End-to-end tests of the Harris-Michael list over the simulator, with
   every reclamation scheme: sequential semantics against a model,
   concurrent stress (consistency + conservation + no use-after-free +
   leak accounting), and the demonstration that the unfenced HP variant is
   actually unsafe under TSO while fenced HP is not. *)

open Qs_sim
module L = Qs_ds.Linked_list.Make (Sim_runtime)
module IS = Set.Make (Int)

let sched ?(n_cores = 4) ?(seed = 1) ?(rooster = Some 2_000) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with
      rooster_interval = rooster;
      rooster_oversleep = 50 }

let list_cfg ?(scheme = Qs_smr.Scheme.Qsense) ?(n = 4) ?capacity ?switch_threshold () =
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  { base with
    capacity;
    smr =
      { base.smr with
        quiescence_threshold = 16;
        scan_threshold = 16;
        rooster_interval = 2_000;
        epsilon = 300;
        switch_threshold = (match switch_threshold with Some c -> c | None -> 0) } }

(* --- sequential semantics vs a model ----------------------------------- *)

let test_sequential_semantics () =
  let s = sched ~n_cores:1 () in
  let lst = L.create (list_cfg ~n:1 ()) in
  let ctx = L.register lst ~pid:0 in
  let prng = Qs_util.Prng.create ~seed:7 in
  Scheduler.exec s ~pid:0 (fun () ->
      let model = ref IS.empty in
      for _ = 1 to 3_000 do
        let key = Qs_util.Prng.int prng 50 in
        match Qs_util.Prng.int prng 3 with
        | 0 ->
          let expected = not (IS.mem key !model) in
          let got = L.insert ctx key in
          if got then model := IS.add key !model;
          if got <> expected then
            Alcotest.failf "insert %d: got %b expected %b" key got expected
        | 1 ->
          let expected = IS.mem key !model in
          let got = L.delete ctx key in
          if got then model := IS.remove key !model;
          if got <> expected then
            Alcotest.failf "delete %d: got %b expected %b" key got expected
        | _ ->
          let expected = IS.mem key !model in
          let got = L.search ctx key in
          if got <> expected then
            Alcotest.failf "search %d: got %b expected %b" key got expected
      done;
      let final = L.to_list ctx in
      Alcotest.(check (list int)) "final contents" (IS.elements !model) final)

(* --- concurrent stress per scheme -------------------------------------- *)

type worker_tally = { mutable ins : int; mutable del : int }

let stress ?(n = 4) ?(ops = 4_000) ?(range = 64) ~scheme ~seed () =
  let s = sched ~n_cores:n ~seed () in
  let lst = L.create (list_cfg ~scheme ~n ()) in
  let ctxs = Array.init n (fun pid -> L.register lst ~pid) in
  let fill = ref 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      for key = 0 to (range / 2) - 1 do
        if L.insert ctxs.(0) (key * 2) then incr fill
      done);
  let tallies = Array.init n (fun _ -> { ins = 0; del = 0 }) in
  let master = Qs_util.Prng.create ~seed:(seed + 1000) in
  let prngs = Array.init n (fun _ -> Qs_util.Prng.split master) in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        let prng = prngs.(pid) and tally = tallies.(pid) and ctx = ctxs.(pid) in
        for _ = 1 to ops do
          let key = Qs_util.Prng.int prng range in
          let pct = Qs_util.Prng.percent prng in
          if pct < 25 then begin
            if L.insert ctx key then tally.ins <- tally.ins + 1
          end
          else if pct < 50 then begin
            if L.delete ctx key then tally.del <- tally.del + 1
          end
          else ignore (L.search ctx key)
        done)
  done;
  Scheduler.run_all s;
  (s, lst, ctxs, tallies, !fill)

let check_stress ~scheme ~seed () =
  let s, lst, ctxs, tallies, fill = stress ~scheme ~seed () in
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ -> Alcotest.failf "worker %d failed: %s" pid (Printexc.to_string e));
  Alcotest.(check int) "no use-after-free" 0 (L.violations lst);
  let final = Scheduler.exec s ~pid:0 (fun () -> L.to_list ctxs.(0)) in
  let sorted = List.sort_uniq compare final in
  Alcotest.(check (list int)) "sorted, no duplicates" sorted final;
  let expected_size =
    Array.fold_left (fun acc t -> acc + t.ins - t.del) fill tallies
  in
  Alcotest.(check int) "conservation" expected_size (List.length final);
  (* leak accounting after a full teardown flush *)
  Scheduler.exec s ~pid:0 (fun () -> Array.iter (fun ctx -> L.flush ctx) ctxs);
  let r = L.report lst in
  Alcotest.(check int) "no double frees" 0 r.double_frees;
  if scheme <> Qs_smr.Scheme.None_ then
    Alcotest.(check int)
      "all non-live nodes freed (outstanding = live)"
      (List.length final) r.outstanding
  else begin
    (* the leaky baseline must actually leak *)
    Alcotest.(check bool) "leaky leaks" true (r.outstanding > List.length final)
  end

let stress_case scheme =
  let name = Printf.sprintf "stress %s" (Qs_smr.Scheme.to_string scheme) in
  Alcotest.test_case name `Quick (fun () ->
      check_stress ~scheme ~seed:11 ();
      check_stress ~scheme ~seed:42 ())

(* --- the fence is load-bearing (Algorithm 2) --------------------------- *)

(* Count oracle violations over several seeds under adversarial conditions:
   no roosters, no spontaneous drain, scans on every retire. *)
let violations_with ~scheme ~seeds =
  List.fold_left
    (fun acc seed ->
      let n = 4 in
      let s =
        Scheduler.create
          { (Scheduler.default_config ~n_cores:n ~seed) with
            rooster_interval = None;
            cost = { Scheduler.default_cost with stall_prob = 0.05; stall_max = 600 } }
      in
      let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
      let cfg =
        { base with
          smr =
            { base.smr with
              quiescence_threshold = 4;
              scan_threshold = 1; (* scan on EVERY retire — exact timing *)
              (* tiny deferral so even Cadence-style aging cannot mask HP bugs *)
              rooster_interval = 0;
              epsilon = 0 } }
      in
      let lst = L.create cfg in
      let ctxs = Array.init n (fun pid -> L.register lst ~pid) in
      Scheduler.exec s ~pid:0 (fun () ->
          for key = 0 to 7 do
            ignore (L.insert ctxs.(0) key)
          done);
      let master = Qs_util.Prng.create ~seed in
      let prngs = Array.init n (fun _ -> Qs_util.Prng.split master) in
      for pid = 0 to n - 1 do
        Scheduler.spawn s ~pid (fun () ->
            let prng = prngs.(pid) and ctx = ctxs.(pid) in
            for _ = 1 to 4_000 do
              let key = Qs_util.Prng.int prng 8 in
              let pct = Qs_util.Prng.percent prng in
              if pct < 25 then ignore (L.insert ctx key)
              else if pct < 50 then ignore (L.delete ctx key)
              else ignore (L.search ctx key)
            done)
      done;
      Scheduler.run_all s;
      acc + L.violations lst)
    0 seeds

let seeds = [ 1; 2; 3; 4; 5; 6 ]

let test_unsafe_hp_violates () =
  let v = violations_with ~scheme:Qs_smr.Scheme.Unsafe_hp ~seeds in
  Alcotest.(check bool)
    (Printf.sprintf "unfenced HP causes use-after-free under TSO (%d found)" v)
    true (v > 0)

let test_fenced_hp_safe () =
  Alcotest.(check int) "fenced HP never violates" 0
    (violations_with ~scheme:Qs_smr.Scheme.Hp ~seeds)

(* --- the search never leaves a node by a marked link ---------------------- *)

(* One bucket, classic HP scanning on every retire, long random stalls: a
   reader searches keys of [0, 8) with [search_in] while two writers
   insert and delete them. A search that followed a marked link (frozen,
   so its validation re-read always passed) reached freed nodes in 5 of
   these 100 seeds; corpus cases 076 and 082 catch it too. *)
let probe_violations ~seed =
  let n = 3 in
  let s =
    Scheduler.create
      { (Scheduler.default_config ~n_cores:n ~seed) with
        rooster_interval = Some 2_000;
        rooster_oversleep = 50;
        cost =
          { Scheduler.default_cost with stall_prob = 0.02; stall_max = 8_000 } }
  in
  let base =
    Qs_ds.Set_intf.default_config ~n_processes:n ~scheme:Qs_smr.Scheme.Hp
  in
  let lst = L.create { base with smr = { base.smr with scan_threshold = 1 } } in
  let bucket = L.new_bucket lst in
  let ctxs = Array.init n (fun pid -> L.register lst ~pid) in
  for pid = 0 to n - 1 do
    let prng = Qs_util.Prng.create ~seed:((seed * 7) + pid) in
    Scheduler.spawn s ~pid (fun () ->
        let ctx = ctxs.(pid) in
        for _ = 1 to 500 do
          let key = Qs_util.Prng.int prng 8 in
          if pid = 0 then ignore (L.search_in ctx ~bucket key)
          else if Qs_util.Prng.bool prng then ignore (L.insert_in ctx ~bucket key)
          else ignore (L.delete_in ctx ~bucket key)
        done)
  done;
  Scheduler.run_all s;
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ ->
    Alcotest.failf "seed %d: worker %d failed: %s" seed pid
      (Printexc.to_string e));
  L.violations lst

let test_probe_no_marked_link () =
  let hit = ref [] in
  for seed = 1 to 100 do
    if probe_violations ~seed > 0 then hit := seed :: !hit
  done;
  if !hit <> [] then
    Alcotest.failf "search_in reached freed nodes at seeds %s"
      (String.concat " " (List.rev_map string_of_int !hit))

(* --- publishes and link reads of the search ------------------------------- *)

module Lc = Qs_ds.Linked_list.Make (Counted)

(* 1,000 searches for keys drawn from [0, 512) by a seeded generator, one
   process under classic HP, on the list holding the even keys. The
   search publishes each node it enters once and reads its link twice
   (the read and the validation re-read); it neither publishes nor
   validates the tail. The snipping [find], with two publishes and four
   link reads per node, made 267,496 and 535,992. *)
let test_hp_search_counts () =
  Counted.register_self 0;
  let ctx =
    Lc.register
      (Lc.create
         (Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme:Qs_smr.Scheme.Hp))
      ~pid:0
  in
  for k = 0 to 255 do
    ignore (Lc.insert ctx (2 * k))
  done;
  let prng = Qs_util.Prng.create ~seed:1 in
  let reads, publishes =
    Counted.counted (fun () ->
        for _ = 1 to 1_000 do
          ignore (Lc.search ctx (Qs_util.Prng.int prng 512))
        done)
  in
  Alcotest.(check int) "publishes of 1,000 searches" 134_247 publishes;
  Alcotest.(check int) "link reads of 1,000 searches" 269_009 reads

let suite =
  [ Alcotest.test_case "sequential semantics vs model" `Quick test_sequential_semantics;
    stress_case Qs_smr.Scheme.None_;
    stress_case Qs_smr.Scheme.Hp;
    stress_case Qs_smr.Scheme.Qsbr;
    stress_case Qs_smr.Scheme.Cadence;
    stress_case Qs_smr.Scheme.Qsense;
    Alcotest.test_case "unfenced HP is unsafe under TSO" `Quick test_unsafe_hp_violates;
    Alcotest.test_case "fenced HP is safe under TSO" `Quick test_fenced_hp_safe;
    Alcotest.test_case "probe never follows a marked link" `Quick
      test_probe_no_marked_link;
    Alcotest.test_case "HP search publish and read counts are exact" `Quick
      test_hp_search_counts
  ]
