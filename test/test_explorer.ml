(* The adversarial schedule explorer (lib/harness/explorer.ml):

   - case serialization round-trips exactly, including fault plans and
     non-trivial strategies, and rejects malformed lines;
   - [run_one] is deterministic (the repro-file contract rests on it);
   - positive controls: the explorer finds the planted unsafety in the
     unsafe (fence-free) HP variant and the leak in the leaky baseline,
     and every such failure shrinks to a smaller case of the same verdict
     class and replays from its saved repro file alone;
   - negative controls: the committed corpus of known-clean cases stays
     clean, with linearizability actually checked on it; the clean sweep
     (hp, cadence, qsense, debra-plus, hyaline under fair, PCT, stall,
     chaos and neutralize schedules) and the churn sweep over the seven
     sound schemes pass at 3 seeds each;
   - injected stalls drive QSense through a full fallback round-trip
     (fallback_entries/exits/ticks) while QSBR OOMs under the identical
     schedule.

   The case families are [Explorer]'s; this file is the one place that
   judges them ([explore.exe fingerprint] only digests their outcomes). *)

open Qs_harness
module Scheme = Qs_smr.Scheme
module Scheduler = Qs_sim.Scheduler

let case : Explorer.case Alcotest.testable =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Explorer.to_string c))
    ( = )

(* --- serialization ------------------------------------------------------- *)

let round_trip c =
  match Explorer.of_string (Explorer.to_string c) with
  | Ok c' -> Alcotest.check case (Explorer.to_string c) c c'
  | Error e -> Alcotest.failf "of_string failed: %s" e

let test_serialization_round_trip () =
  let base = Explorer.default_case ~ds:Cset.List ~scheme:Scheme.Qsense ~seed:42 in
  round_trip base;
  round_trip { base with ds = Cset.Hashtable; scheme = Scheme.Unsafe_hp };
  round_trip { base with strategy = Pct { depth = 3 }; capacity = 256 };
  round_trip
    { base with
      strategy =
        Targeted
          { victim = 2;
            hook = Qs_intf.Runtime_intf.Hook_scan;
            skip = 5;
            stall = 10_000 } };
  round_trip
    { base with
      faults =
        [ Scheduler.Stall_at { pid = 3; at = 1_000; ticks = 50_000 };
          Scheduler.Crash_at { pid = 1; at = 5_000 };
          Scheduler.Oversleep_spike { pid = 0; at = 2_000; extra = 900 };
          Scheduler.Skew_burst
            { pid = 2; at = 3_000; until_ = 9_000; extra = 70 };
          Scheduler.Churn_at { pid = 1; at = 4_000; ticks = 25_000 } ] };
  (* full fault-level expansions round-trip through the explicit list *)
  round_trip
    { base with
      faults =
        Explorer.plan Explorer.Chaos ~n:base.n_processes
          ~duration:base.duration ~seed:base.seed };
  round_trip
    { base with
      faults =
        Explorer.plan Explorer.Churn ~n:base.n_processes
          ~duration:base.duration ~seed:base.seed }

let test_serialization_rejects_malformed () =
  let expect_error s =
    match Explorer.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed case %S" s
  in
  expect_error "";
  expect_error "ds=list";
  expect_error
    "ds=nosuch scheme=hp n=4 keys=32 upd=50 ops=10 dur=1000 cap=0 switch=0 \
     strat=fair faults=- seed=1";
  expect_error
    "ds=list scheme=hp n=4 keys=32 upd=50 ops=10 dur=1000 cap=0 switch=0 \
     strat=pct faults=- seed=1";
  expect_error
    "ds=list scheme=hp n=4 keys=32 upd=50 ops=10 dur=1000 cap=0 switch=0 \
     strat=fair faults=stall:9 seed=1";
  (* every field is required, [bags=] and [evict=] included *)
  expect_error
    "ds=list scheme=hp n=4 keys=32 upd=50 ops=10 dur=1000 cap=0 switch=0 \
     evict=0 strat=fair faults=- seed=1"

(* --- determinism --------------------------------------------------------- *)

let test_run_one_deterministic () =
  let c =
    { (Explorer.default_case ~ds:Cset.List ~scheme:Scheme.Qsense ~seed:7) with
      Explorer.faults =
        Explorer.plan Explorer.Stalls ~n:4 ~duration:400_000 ~seed:7 }
  in
  let a = Explorer.run_one c and b = Explorer.run_one c in
  Alcotest.(check string)
    "same verdict"
    (Explorer.verdict_to_string a.verdict)
    (Explorer.verdict_to_string b.verdict);
  Alcotest.(check int) "same ops" a.ops b.ops;
  Alcotest.(check int) "same steps" a.steps b.steps;
  Alcotest.(check int) "same frees" a.stats.frees b.stats.frees

(* --- positive controls --------------------------------------------------- *)

let control_seeds = Explorer.seeds ~base:1 ~count:3

(* The fence in [assign_hp] is load-bearing: without it the explorer's
   fair schedules catch reclamation of hazardously referenced nodes.
   The failure then shrinks and replays from its repro file alone. *)
let test_finds_unsafe_hp_and_shrinks () =
  let failures = Explorer.explore (List.map Explorer.unsafe_hp_case control_seeds) in
  Alcotest.(check bool)
    (Printf.sprintf "unsafe-hp caught (%d/3 seeds)" (List.length failures))
    true
    (List.length failures >= 1);
  let c, o = List.hd failures in
  (match o.Explorer.verdict with
  | Explorer.Uaf _ | Explorer.Double_free _ -> ()
  | v -> Alcotest.failf "expected a memory-safety verdict, got %s"
           (Explorer.verdict_to_string v));
  (* shrink keeps the verdict class and never grows the case *)
  let small, spent = Explorer.shrink ~budget:30 c o.verdict in
  Alcotest.(check bool) "shrink spent within budget" true (spent <= 30);
  Alcotest.(check bool) "shrunk ops <= original" true
    (small.Explorer.ops_per_proc <= c.Explorer.ops_per_proc);
  let o' = Explorer.run_one small in
  Alcotest.(check bool) "shrunk case keeps the verdict class" true
    (Explorer.same_class o.verdict o'.Explorer.verdict);
  (* the saved repro file is self-sufficient *)
  let path = Filename.temp_file "explorer" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Explorer.save_repro path small o';
      let replayed = Explorer.load_repro path in
      Alcotest.check case "repro round-trips the case" small replayed;
      let o'' = Explorer.run_one replayed in
      Alcotest.(check bool) "repro replays the verdict class" true
        (Explorer.same_class o'.Explorer.verdict o''.Explorer.verdict))

let test_finds_leak () =
  List.iter
    (fun seed ->
      match (Explorer.run_one (Explorer.leaky_case seed)).verdict with
      | Explorer.Oom _ -> ()
      | v ->
        Alcotest.failf "leaky baseline (seed %d) should exhaust the arena, got %s"
          seed (Explorer.verdict_to_string v))
    control_seeds

(* A BST delete that wins its DFlag CAS must retire the removed pair, and
   an insert must record the pair it allocates, even when a neutralization
   signal lands in between (corpus case 064's schedule hit both windows). *)
let test_bst_unwind_no_leak () =
  let c =
    match
      Explorer.of_string
        "ds=bst scheme=debra-plus n=4 keys=32 upd=50 ops=150 dur=400000 cap=0 \
         switch=48 evict=0 bags=64 strat=fair \
         faults=neut:0:68406,neut:2:73694,stall:0:109932:142817 seed=42"
    with
    | Ok c -> c
    | Error e -> failwith e
  in
  let r = Sim_exp.run (Explorer.setup_of c) in
  Alcotest.(check string) "no node stranded" "ok"
    (match r.leak_check with
    | `Ok -> "ok"
    | `Leaked n -> Printf.sprintf "leaked %d" n
    | `Skipped -> "skipped")

(* --- corpus replay (negative control) ------------------------------------ *)

let test_corpus_clean () =
  (* dune runtest runs in the test directory (the corpus is a declared
     dep); a bare `dune exec test/main.exe` runs from the project root *)
  let path =
    if Sys.file_exists "explorer.corpus" then "explorer.corpus"
    else "test/explorer.corpus"
  in
  let cases = Explorer.load_corpus path in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length cases >= 12);
  List.iter
    (fun c ->
      let o = Explorer.run_one c in
      (* a pass includes the check of the history, whatever its length,
         strategy or faults *)
      if o.verdict <> Explorer.Pass then
        Alcotest.failf "corpus case failed: %s -> %s" (Explorer.to_string c)
          (Explorer.verdict_to_string o.verdict))
    cases

(* [cases] hold [per_scheme] cases of each of [schemes] and nothing else,
   and every case passes; a failure names its case line. The composition
   check catches a scheme swapped out of a sweep even where its verdicts
   would pass at the sweep's shape (unsafe-hp does, on 32 keys and 150
   operations per process). *)
let all_pass ~schemes ~per_scheme cases =
  Alcotest.(check int) "case count" (per_scheme * List.length schemes)
    (List.length cases);
  List.iter
    (fun scheme ->
      Alcotest.(check int) (Scheme.to_string scheme ^ " cases") per_scheme
        (List.length (List.filter (fun (c : Explorer.case) -> c.scheme = scheme) cases)))
    schemes;
  List.iter
    (fun c ->
      match (Explorer.run_one c).verdict with
      | Explorer.Pass -> ()
      | v ->
        Alcotest.failf "%s -> %s" (Explorer.to_string c) (Explorer.verdict_to_string v))
    cases

let test_sweep_cases_pass () =
  all_pass ~schemes:Scheme.[ Hp; Cadence; Qsense; Debra_plus; Hyaline ] ~per_scheme:15
    (Explorer.sweep_cases ~seeds:3)

(* --- QSense fallback round-trip under injected stalls -------------------- *)

let test_qsense_fallback_round_trip () =
  let o = Explorer.run_one (Explorer.stall_case ~scheme:Scheme.Qsense ~seed:5) in
  (match o.Explorer.verdict with
  | Explorer.Pass -> ()
  | v ->
      Alcotest.failf "qsense should survive the stall, got %s"
        (Explorer.verdict_to_string v));
  Alcotest.(check bool) "entered fallback" true (o.stats.fallback_entries >= 1);
  Alcotest.(check bool) "returned to the fast path" true
    (o.stats.fallback_exits >= 1);
  Alcotest.(check bool) "spent measurable time in fallback" true
    (o.stats.fallback_ticks > 0);
  Alcotest.(check bool) "ends on the fast path" true
    (o.stats.mode = Qs_smr.Smr_intf.Fast);
  Alcotest.(check bool) "kept reclaiming" true (o.stats.frees > 0)

(* Differential: the identical schedule kills QSBR. *)
let test_qsbr_ooms_on_same_schedule () =
  let o = Explorer.run_one (Explorer.stall_case ~scheme:Scheme.Qsbr ~seed:5) in
  match o.Explorer.verdict with
  | Explorer.Oom t ->
      Alcotest.(check bool) "exhausted after the stall began" true (t >= 100_000)
  | v ->
      Alcotest.failf "qsbr should OOM under the stall, got %s"
        (Explorer.verdict_to_string v)

(* --- fault plans --------------------------------------------------------- *)

let test_plan_deterministic () =
  List.iter
    (fun level ->
      let p1 = Explorer.plan level ~n:4 ~duration:400_000 ~seed:9 in
      let p2 = Explorer.plan level ~n:4 ~duration:400_000 ~seed:9 in
      Alcotest.(check bool)
        (Explorer.fault_level_to_string level ^ " plan deterministic")
        true (p1 = p2))
    [ Explorer.No_faults; Explorer.Stalls; Explorer.Victim_stall;
      Explorer.Chaos; Explorer.Churn ];
  Alcotest.(check bool) "chaos plan non-empty" true
    (Explorer.plan Explorer.Chaos ~n:4 ~duration:400_000 ~seed:9 <> []);
  Alcotest.(check int) "no_faults plan empty" 0
    (List.length (Explorer.plan Explorer.No_faults ~n:4 ~duration:400_000 ~seed:9));
  (* the churn plan carries at least two leave/rejoin injections, and they
     never target pid 0 exclusively-gated contexts outside [1, n) *)
  let churns =
    List.filter_map
      (function
        | Qs_sim.Scheduler.Churn_at { pid; at; ticks } -> Some (pid, at, ticks)
        | _ -> None)
      (Explorer.plan Explorer.Churn ~n:4 ~duration:400_000 ~seed:9)
  in
  Alcotest.(check bool) "churn plan injects at least two leave/rejoins" true
    (List.length churns >= 2);
  List.iter
    (fun (pid, at, ticks) ->
      Alcotest.(check bool) "churn pid in range" true (pid >= 0 && pid < 4);
      Alcotest.(check bool) "churn timing positive" true (at > 0 && ticks > 0))
    churns

(* --- churn: leave/rejoin + orphan adoption stays safe --------------------- *)

let test_churn_cases_pass () =
  all_pass
    ~schemes:Scheme.[ Qsbr; Ebr; Hp; Cadence; Qsense; Debra_plus; Hyaline ]
    ~per_scheme:3 (Explorer.churn_cases ~seeds:3)

let test_churn_deterministic () =
  let c =
    List.find
      (fun (c : Explorer.case) -> c.scheme = Scheme.Qsense)
      (Explorer.churn_cases ~seeds:1)
  in
  let a = Explorer.run_one c and b = Explorer.run_one c in
  Alcotest.(check string)
    "same verdict"
    (Explorer.verdict_to_string a.Explorer.verdict)
    (Explorer.verdict_to_string b.Explorer.verdict);
  Alcotest.(check int) "same ops" a.Explorer.ops b.Explorer.ops;
  Alcotest.(check int) "same steps" a.Explorer.steps b.Explorer.steps

let suite =
  [ Alcotest.test_case "case serialization round-trips" `Quick
      test_serialization_round_trip;
    Alcotest.test_case "malformed cases rejected" `Quick
      test_serialization_rejects_malformed;
    Alcotest.test_case "run_one is deterministic" `Quick
      test_run_one_deterministic;
    Alcotest.test_case "finds unsafe-hp, shrinks, replays repro" `Quick
      test_finds_unsafe_hp_and_shrinks;
    Alcotest.test_case "finds the leaky baseline's leak" `Quick test_finds_leak;
    Alcotest.test_case "bst unwind strands no node" `Quick test_bst_unwind_no_leak;
    Alcotest.test_case "committed corpus stays clean" `Quick test_corpus_clean;
    Alcotest.test_case "sweep cases pass on the clean schemes" `Slow
      test_sweep_cases_pass;
    Alcotest.test_case "stalls drive qsense through fallback and back" `Quick
      test_qsense_fallback_round_trip;
    Alcotest.test_case "qsbr OOMs on the same stall schedule" `Quick
      test_qsbr_ooms_on_same_schedule;
    Alcotest.test_case "fault plans are deterministic" `Quick
      test_plan_deterministic;
    Alcotest.test_case "churn cases pass on the sound schemes" `Slow
      test_churn_cases_pass;
    Alcotest.test_case "churn runs are deterministic" `Quick
      test_churn_deterministic
  ]
