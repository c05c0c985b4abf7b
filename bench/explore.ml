(* Explorer CLI (see EXPERIMENTS.md, "Schedule exploration" and
   "Exploration at scale").

   Subcommands:

   - [smoke [--seeds N] [--jobs N] [--repro-out PATH]] — the CI smoke
     budget: positive controls (the explorer must find the planted unsafety
     in the leaky and unsafe-hp baselines within N seeds), a clean sweep
     over hp / cadence / qsense and the rival schemes debra-plus / hyaline
     (fair, PCT, fault-plan and [Neutralize] schedules; any failure is
     shrunk and saved to PATH), a churn sweep over the sound schemes
     (the [Churn] fault level: leave/rejoin + orphan adoption under
     a stall), and the QSense fallback round-trip with its QSBR
     differential. Sweeps run through the worker-domain pool ([--jobs],
     default cores-1); shrinking stays on the coordinator. Exit 1 on any
     unexpected outcome.
   - [corpus PATH [--jobs N] [--repro-out OUT]] — replay a committed corpus
     of known-clean cases through the pool; on failure, shrink and save a
     repro. Exit 1 if any case fails.
   - [replay PATH [--trace OUT]] — re-run the first case of a repro/corpus
     file and print the verdict (exit 1 if it is not Pass, so a repro file
     "fails again" visibly). This is the one-liner for reproducing a CI
     failure locally. With [--trace OUT], the replay runs with a trace sink
     installed and writes the Chrome trace-event timeline (Perfetto) of the
     run to OUT — trace emission is schedule-neutral, so the verdict is the
     same traced or not (see DESIGN.md §9), making this the way to look
     inside a failure.
   - [profile [--jobs N] [--repeat N] [--out PATH]] — the sim-core
     micro-bench: effects/sec and schedules/sec on a representative case
     mix, solo and through the pool, plus minor-allocation words per
     scheduler step; merges an "explorer" section into PATH
     (out/BENCH_RESULTS.json, written by bench/main.exe, whose schema
     number it keeps) when it exists.
   - [grow OUT [--target N] [--jobs N] [--budget N] [--base PATH]] —
     coverage-guided corpus growth: breed [--target] known-clean cases from
     a deterministic frontier (plus [--base] corpus, if given), keeping
     witnesses for every rare event class (fallback entry, eviction-seize,
     unregister, adoption, bag sealing, neutralization); writes the corpus
     to OUT. Exit 1
     if a rare class ends up with no witness.
   - [coverage PATH [--jobs N]] — replay a corpus with the counting sink
     and report how many cases witness each rare event class; exit 1 if
     any class has no witness (the corpus contract grow enforces at build
     time, re-checked here independently — CI runs it on the committed
     file).

   - [fingerprint [--check] [--out PATH] [--jobs N]] — run every
     deterministic output (each [repro all] section at quick scale, seed 1;
     the committed corpus' witness counts and each case's verdict and step
     count; [smoke --seeds 3]; the sim-stall benchmark's p50/p99/p999 and
     retired peak at seeds 1-3) and write one line per section — name,
     MD5 digest, line count — to PATH (default FINGERPRINTS). With
     [--check], compare against PATH instead, name every section that
     moved, is new or is missing, and exit 1 if any did. Run from the
     repository root.

   Everything is deterministic: equal case lines give equal verdicts, solo
   or pooled, whatever the job count. *)

open Qs_harness
module Scheme = Qs_smr.Scheme
module Scheduler = Qs_sim.Scheduler

(* Default outputs land in the gitignored [out/] directory (created on
   first write) rather than the repo root; explicit [--repro-out]/[--out]
   /[--trace] paths are used as given. *)
let ensure_parent path =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    Sys.mkdir dir 0o755

let default_repro_out = Filename.concat "out" "explorer_failure.repro"

let usage () =
  prerr_endline
    "usage: explore.exe smoke [--seeds N] [--jobs N] [--repro-out PATH]\n\
    \       explore.exe corpus PATH [--jobs N] [--repro-out OUT]\n\
    \       explore.exe replay PATH [--trace OUT]\n\
    \       explore.exe profile [--jobs N] [--repeat N] [--out PATH]\n\
    \       explore.exe grow OUT [--target N] [--jobs N] [--budget N] [--base PATH]\n\
    \       explore.exe coverage PATH [--jobs N]\n\
    \       explore.exe fingerprint [--check] [--out PATH] [--jobs N]";
  exit 2

(* Flag values are validated here: a typo'd [--seeds x2] or [--jobs 0] gets
   the usage message, not an [int_of_string] exception. *)
let pos_int ~flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ ->
    Printf.eprintf "explore.exe: %s expects a positive integer, got %S\n" flag v;
    usage ()

type flags = {
  seeds : int;
  jobs : int;
  repro_out : string;
  target : int;
  budget : int;
  repeat : int;
  out : string option;
  base : string option;
}

let default_flags =
  { seeds = 3;
    jobs = Explorer_pool.default_jobs ();
    repro_out = default_repro_out;
    target = 64;
    budget = 1_500;
    repeat = 6;
    out = None;
    base = None }

let rec parse_flags acc = function
  | [] -> acc
  | "--seeds" :: v :: rest -> parse_flags { acc with seeds = pos_int ~flag:"--seeds" v } rest
  | "--jobs" :: v :: rest -> parse_flags { acc with jobs = pos_int ~flag:"--jobs" v } rest
  | "--repro-out" :: p :: rest -> parse_flags { acc with repro_out = p } rest
  | "--target" :: v :: rest ->
    parse_flags { acc with target = pos_int ~flag:"--target" v } rest
  | "--budget" :: v :: rest ->
    parse_flags { acc with budget = pos_int ~flag:"--budget" v } rest
  | "--repeat" :: v :: rest ->
    parse_flags { acc with repeat = pos_int ~flag:"--repeat" v } rest
  | "--out" :: p :: rest -> parse_flags { acc with out = Some p } rest
  | "--base" :: p :: rest -> parse_flags { acc with base = Some p } rest
  | [ flag ]
    when List.mem flag
           [ "--seeds"; "--jobs"; "--repro-out"; "--target"; "--budget"; "--repeat";
             "--out"; "--base" ] ->
    Printf.eprintf "explore.exe: %s expects a value\n" flag;
    usage ()
  | arg :: _ ->
    Printf.eprintf "unknown argument %S\n" arg;
    usage ()

let parse args = parse_flags default_flags args

let show_outcome (c : Explorer.case) (o : Explorer.outcome) =
  Printf.printf "  %-10s %-9s strat=%-8s faults=%-2d seed=%-6d -> %s\n%!"
    (Cset.kind_to_string c.ds)
    (Scheme.to_string c.scheme)
    (match c.strategy with
    | Fair -> "fair"
    | Pct { depth } -> Printf.sprintf "pct:%d" depth
    | Targeted _ -> "targeted")
    (List.length c.faults) c.seed
    (Explorer.verdict_to_string o.verdict)

(* Shrink a failing case and persist it; shrinking re-runs candidate cases
   solo on the coordinator (outcomes are identical either way). *)
let persist_failure ~repro_out (c : Explorer.case) (o : Explorer.outcome) =
  let small, spent = Explorer.shrink c o.verdict in
  let o' = Explorer.run_one small in
  ensure_parent repro_out;
  Explorer.save_repro repro_out small o';
  Printf.printf "  shrunk in %d extra runs; repro saved to %s\n" spent repro_out;
  Printf.printf "  replay with: dune exec bench/explore.exe -- replay %s\n%!"
    repro_out

(* --- positive controls: the explorer must find planted bugs -------------- *)

let unsafe_hp_case seed =
  { (Explorer.default_case ~ds:Cset.List ~scheme:Scheme.Unsafe_hp ~seed) with
    Explorer.key_range = 8;
    ops_per_proc = 4_000;
    duration = 10_000_000 }

let leaky_case seed =
  { (Explorer.default_case ~ds:Cset.List ~scheme:Scheme.None_ ~seed) with
    Explorer.capacity = 256;
    ops_per_proc = 4_000;
    duration = 10_000_000 }

let positive_control ~name ~mk ~seeds ~jobs =
  let cases = List.map mk (Explorer.seeds ~base:1 ~count:seeds) in
  let failures = Explorer_pool.explore ~jobs cases in
  List.iter (fun (c, o) -> show_outcome c o) failures;
  if failures = [] then begin
    Printf.printf "FAIL: %s yielded no violation within %d seeds\n%!" name seeds;
    false
  end
  else begin
    Printf.printf "ok: %s caught (%d/%d seeds)\n%!" name
      (List.length failures) seeds;
    true
  end

(* --- clean sweep: robust schemes must stay clean ------------------------- *)

let clean_cases ~seeds =
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun seed ->
          let dc = Explorer.default_case ~ds:Cset.List ~scheme ~seed in
          [ dc;
            { dc with Explorer.strategy = Pct { depth = 3 } };
            { dc with
              Explorer.faults =
                Explorer.plan Explorer.Stalls ~n:dc.n_processes
                  ~duration:dc.duration ~seed };
            { dc with
              Explorer.faults =
                Explorer.plan Explorer.Chaos ~n:dc.n_processes
                  ~duration:dc.duration ~seed };
            (* poison deliveries discontinue whatever operation is in
               flight — under every scheme, not just DEBRA+: the unwind
               handlers in the structures must hold across the zoo *)
            { dc with
              Explorer.faults =
                Explorer.plan Explorer.Neutralize ~n:dc.n_processes
                  ~duration:dc.duration ~seed } ])
        (Explorer.seeds ~base:11 ~count:seeds))
    [ Scheme.Hp; Scheme.Cadence; Scheme.Qsense; Scheme.Debra_plus;
      Scheme.Hyaline ]

let clean_sweep ~seeds ~jobs ~repro_out =
  let cases = clean_cases ~seeds in
  let failures = Explorer_pool.explore ~jobs cases in
  match failures with
  | [] ->
    Printf.printf "ok: %d clean-scheme cases pass\n%!" (List.length cases);
    true
  | (c, o) :: _ ->
    List.iter (fun (c, o) -> show_outcome c o) failures;
    Printf.printf "FAIL: %d/%d clean-scheme cases failed\n%!"
      (List.length failures) (List.length cases);
    persist_failure ~repro_out c o;
    false

(* --- churn sweep: dynamic membership must stay safe ---------------------- *)

(* Every sound scheme under the [Churn] fault level: two processes leave
   and rejoin mid-run (donating their limbo lists to the orphan pool) while
   a third stalls. The failure class being hunted is the adopted-node UAF —
   an adopter freeing an orphan a still-running (evicted or stalled)
   process protects. *)
let churn_cases ~seeds =
  List.concat_map
    (fun scheme ->
      List.map
        (fun seed ->
          let dc = Explorer.default_case ~ds:Cset.List ~scheme ~seed in
          { dc with
            Explorer.faults =
              Explorer.plan Explorer.Churn ~n:dc.n_processes
                ~duration:dc.duration ~seed })
        (Explorer.seeds ~base:29 ~count:seeds))
    [ Scheme.Qsbr; Scheme.Ebr; Scheme.Hp; Scheme.Cadence; Scheme.Qsense;
      Scheme.Debra_plus; Scheme.Hyaline ]

let churn_sweep ~seeds ~jobs ~repro_out =
  let cases = churn_cases ~seeds in
  let failures = Explorer_pool.explore ~jobs cases in
  match failures with
  | [] ->
    Printf.printf "ok: %d churn cases pass (leave/rejoin + orphan adoption)\n%!"
      (List.length cases);
    true
  | (c, o) :: _ ->
    List.iter (fun (c, o) -> show_outcome c o) failures;
    Printf.printf "FAIL: %d/%d churn cases failed\n%!"
      (List.length failures) (List.length cases);
    persist_failure ~repro_out c o;
    false

(* --- QSense fallback round-trip under an injected stall ------------------ *)

let stall_case ~scheme =
  { (Explorer.default_case ~ds:Cset.List ~scheme ~seed:5) with
    Explorer.ops_per_proc = 4_000;
    duration = 2_500_000;
    capacity = 300;
    faults = [ Scheduler.Stall_at { pid = 3; at = 100_000; ticks = 1_500_000 } ] }

let fallback_round_trip () =
  let o = Explorer.run_one (stall_case ~scheme:Scheme.Qsense) in
  let o' = Explorer.run_one (stall_case ~scheme:Scheme.Qsbr) in
  let qsense_ok =
    o.verdict = Explorer.Pass
    && o.stats.fallback_entries >= 1
    && o.stats.fallback_exits >= 1
    && o.stats.fallback_ticks > 0
  in
  let qsbr_ok = match o'.verdict with Explorer.Oom _ -> true | _ -> false in
  Printf.printf
    "%s: qsense under stall: %s (fallback entries=%d exits=%d ticks=%d); \
     qsbr differential: %s\n%!"
    (if qsense_ok && qsbr_ok then "ok" else "FAIL")
    (Explorer.verdict_to_string o.verdict)
    o.stats.fallback_entries o.stats.fallback_exits o.stats.fallback_ticks
    (Explorer.verdict_to_string o'.verdict);
  qsense_ok && qsbr_ok

(* --- subcommands --------------------------------------------------------- *)

(* Every smoke check, printing one verdict line each; true if all pass. *)
let smoke_checks (f : flags) =
  let ok_unsafe =
    positive_control ~name:"unsafe-hp" ~mk:unsafe_hp_case ~seeds:f.seeds ~jobs:f.jobs
  in
  let ok_leaky =
    positive_control ~name:"leaky" ~mk:leaky_case ~seeds:f.seeds ~jobs:f.jobs
  in
  let ok_clean = clean_sweep ~seeds:f.seeds ~jobs:f.jobs ~repro_out:f.repro_out in
  let ok_churn = churn_sweep ~seeds:f.seeds ~jobs:f.jobs ~repro_out:f.repro_out in
  let ok_fb = fallback_round_trip () in
  let ok = ok_unsafe && ok_leaky && ok_clean && ok_churn && ok_fb in
  if ok then print_endline "explorer smoke: all checks passed";
  ok

let smoke args =
  let f = parse args in
  Printf.printf "== explorer smoke (seed budget %d, %d jobs) ==\n%!" f.seeds f.jobs;
  if smoke_checks f then 0 else 1

let corpus path args =
  let f = parse args in
  let cases = Explorer.load_corpus path in
  Printf.printf "== corpus replay: %d cases from %s (%d jobs) ==\n%!"
    (List.length cases) path f.jobs;
  match Explorer_pool.explore ~jobs:f.jobs cases with
  | [] ->
    print_endline "corpus clean";
    0
  | (c, o) :: _ as failures ->
    List.iter (fun (c, o) -> show_outcome c o) failures;
    persist_failure ~repro_out:f.repro_out c o;
    1

let replay path args =
  let trace_out =
    match args with
    | [] -> None
    | [ "--trace"; out ] -> Some out
    | _ -> usage ()
  in
  let c = Explorer.load_repro path in
  let o =
    match trace_out with
    | None -> Explorer.run_one c
    | Some out ->
      let tracer =
        Qs_obs.Tracer.create ~n_processes:c.Explorer.n_processes
          ~capacity:(1 lsl 16) ()
      in
      let o = Explorer.run_one ~sink:(Qs_obs.Tracer.sink tracer) c in
      ensure_parent out;
      Qs_obs.Export.save_chrome tracer out;
      Printf.printf
        "  trace: %d events (%d dropped) -> %s (load in ui.perfetto.dev)\n%!"
        (Qs_obs.Tracer.total tracer)
        (Qs_obs.Tracer.total_dropped tracer)
        out;
      o
  in
  show_outcome c o;
  match o.verdict with Explorer.Pass -> 0 | _ -> 1

(* --- profile: the sim-core micro-bench ----------------------------------- *)

(* Representative case mix: fair, PCT and fault-plan schedules across the
   three hazard-scanning schemes — the workloads corpus replay and smoke
   sweeps are made of. Fixed, so numbers are comparable run to run. *)
let profile_batch () =
  clean_cases ~seeds:2 @ churn_cases ~seeds:1

let wall_s () = float_of_int (Qs_real.Real_runtime.now ()) /. 1e9

(* Raw dispatch cost: four fibers spinning plain reads/writes on private
   cells — no data structure, no oracle, no history. Isolates the
   scheduler's per-effect overhead (perform, handler dispatch, accounting,
   pick) from everything the explorer builds on top.

   Two cost models. [`Ties] charges every process identically, so clocks
   march in lockstep and (almost) every pick is a tie: the owned-schedule
   fast path never applies and the number is the pure suspension-path
   cost. [`Corpus] uses the stall model the explorer's cases run under
   (stall_prob 0.05, stall_max 600, as in [Explorer.run_one]), whose
   stalls open the clock gaps that real schedules have — the blended cost
   of inline and suspended dispatch at a representative mix. *)
let raw_dispatch_ns model =
  let open Qs_sim in
  let cfg = Scheduler.default_config ~n_cores:4 ~seed:1 in
  let cfg =
    match model with
    | `Ties -> cfg
    | `Corpus ->
      { cfg with
        Scheduler.cost =
          { Scheduler.default_cost with stall_prob = 0.05; stall_max = 600 } }
  in
  let sched = Scheduler.create cfg in
  (* Disjoint per-process cell rings: writes spread over cells, as data
     structure operations do, so store-buffer commits stay O(1). *)
  let cells = Array.init 4 (fun _ -> Array.init 64 (fun _ -> Cell.make 0)) in
  let iters = 75_000 in
  for pid = 0 to 3 do
    Scheduler.spawn sched ~pid (fun () ->
        let ring = cells.(pid) in
        for i = 1 to iters do
          let c = ring.(i land 63) in
          ignore (Scheduler.op_read c : int);
          ignore (Scheduler.op_read c : int);
          ignore (Scheduler.op_read c : int);
          Scheduler.op_write c i
        done)
  done;
  let t0 = wall_s () in
  Scheduler.run_all sched;
  let dt = wall_s () -. t0 in
  dt *. 1e9 /. float_of_int (Scheduler.steps sched)

(* Inline dispatch cost: the same op mix on a single fiber, which is
   strictly clock-minimal throughout — every operation takes the
   owned-schedule fast path. The gap between this and [raw_dispatch_ns]
   is the price of a genuine suspension. *)
let inline_dispatch_ns () =
  let open Qs_sim in
  let sched = Scheduler.create (Scheduler.default_config ~n_cores:1 ~seed:1) in
  let ring = Array.init 64 (fun _ -> Cell.make 0) in
  let iters = 300_000 in
  Scheduler.spawn sched ~pid:0 (fun () ->
      for i = 1 to iters do
        let c = ring.(i land 63) in
        ignore (Scheduler.op_read c : int);
        ignore (Scheduler.op_read c : int);
        ignore (Scheduler.op_read c : int);
        Scheduler.op_write c i
      done);
  let t0 = wall_s () in
  Scheduler.run_all sched;
  let dt = wall_s () -. t0 in
  dt *. 1e9 /. float_of_int (Scheduler.steps sched)

let profile args =
  let f = parse args in
  let batch = profile_batch () in
  let n_batch = List.length batch in
  (* Per-step minor allocation on the scheduler fast path: one solo run of
     a plain fair case, no sink, no trace ring. The CI pin on this number
     is what keeps the dispatch/allocation work from regressing. *)
  let alloc_case = Explorer.default_case ~ds:Cset.List ~scheme:Scheme.Hp ~seed:11 in
  ignore (Explorer.run_one alloc_case);
  let w0 = Gc.minor_words () in
  let o_alloc = Explorer.run_one alloc_case in
  let step_alloc_words = (Gc.minor_words () -. w0) /. float_of_int o_alloc.steps in
  (* Solo: schedules/sec and effects/sec (a scheduler step dispatches one
     suspended effect; sleep quanta are counted too, as they were in the
     step counter all along). *)
  let t0 = wall_s () in
  let steps = ref 0 in
  for _ = 1 to f.repeat do
    List.iter (fun c -> steps := !steps + (Explorer.run_one c).Explorer.steps) batch
  done;
  let solo_dt = wall_s () -. t0 in
  let runs = f.repeat * n_batch in
  let solo_sched = float_of_int runs /. solo_dt in
  let effects = float_of_int !steps /. solo_dt in
  (* Pooled: same batch, same repeat count, through the worker domains. *)
  let t1 = wall_s () in
  for _ = 1 to f.repeat do
    ignore (Explorer_pool.outcomes ~jobs:f.jobs batch)
  done;
  let pooled_dt = wall_s () -. t1 in
  let pooled_sched = float_of_int runs /. pooled_dt in
  let speedup = pooled_sched /. solo_sched in
  let cores = Domain.recommended_domain_count () in
  let dispatch_ns = raw_dispatch_ns `Ties in
  let dispatch_corpus_ns = raw_dispatch_ns `Corpus in
  let inline_ns = inline_dispatch_ns () in
  Printf.printf
    "== sim-core profile (%d cases x %d, %d jobs, %d cores) ==\n\
     solo:   %8.1f schedules/sec  %10.0f effects/sec\n\
     pooled: %8.1f schedules/sec  (speedup %.2fx)\n\
     dispatch ns/effect: %.1f suspended (all-ties)  %.1f corpus cost model  \
     %.1f inline\n\
     step allocation: %.1f minor words/step\n%!"
    n_batch f.repeat f.jobs cores solo_sched effects pooled_sched speedup
    dispatch_ns dispatch_corpus_ns inline_ns step_alloc_words;
  (match f.out with
  | None -> ()
  | Some path when Sys.file_exists path ->
    let doc = Qs_util.Json.parse_exn (In_channel.with_open_text path In_channel.input_all) in
    let num x = Qs_util.Json.Num x in
    let section =
      Qs_util.Json.Obj
        [ ("cases", num (float_of_int n_batch));
          ("repeat", num (float_of_int f.repeat));
          ("jobs", num (float_of_int f.jobs));
          ("cores", num (float_of_int cores));
          ("effects_per_sec", num (Float.round effects));
          ("schedules_per_sec_solo", num solo_sched);
          ("schedules_per_sec_pooled", num pooled_sched);
          ("pool_speedup", num speedup);
          ("dispatch_ns_per_effect", num dispatch_ns);
          ("dispatch_ns_corpus_cost", num dispatch_corpus_ns);
          ("dispatch_ns_inline", num inline_ns);
          ("step_alloc_words", num step_alloc_words) ]
    in
    let doc = Qs_util.Json.set_member "explorer" section doc in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Qs_util.Json.to_string doc));
    Printf.printf "explorer section merged into %s\n%!" path
  | Some path ->
    Printf.eprintf "explore.exe: --out %s: no such file (run bench first)\n" path;
    exit 1);
  0

(* --- grow: coverage-guided corpus growth --------------------------------- *)

(* The deterministic base frontier: breadth across scheme x structure x
   strategy x fault level, plus the shapes known to reach the rare event
   classes (QSense under a long stall for fallback entry and eviction,
   churn plans for unregister/adoption, small bag capacities for sealing,
   [Neutralize] plans for poison delivery). The rival-scheme shapes lead
   the frontier so a regrow anchored on an existing corpus ([--base])
   admits them before the size target fills up on breadth alone. *)
let grow_base () =
  let rival_shapes =
    let neutralized ~ds ~scheme ~seed =
      let dc = Explorer.default_case ~ds ~scheme ~seed in
      { dc with
        Explorer.faults =
          Explorer.plan Explorer.Neutralize ~n:dc.n_processes
            ~duration:dc.duration ~seed }
    in
    let churned ~ds ~scheme ~seed ~bags =
      let dc = Explorer.default_case ~ds ~scheme ~seed in
      { dc with
        Explorer.bags;
        faults =
          Explorer.plan Explorer.Churn ~n:dc.n_processes ~duration:dc.duration
            ~seed }
    in
    [ (* injected poison deliveries: the neutralize witnesses — both at
         the scheme that restarts (DEBRA+) and at an incumbent, where the
         delivery exercises only the unwind handlers *)
      neutralized ~ds:Cset.List ~scheme:Scheme.Debra_plus ~seed:41;
      neutralized ~ds:Cset.Bst ~scheme:Scheme.Debra_plus ~seed:42;
      neutralized ~ds:Cset.List ~scheme:Scheme.Qsense ~seed:41;
      (* Hyaline under membership churn: unregister donates the open
         batch, small blocks so sealing fires within the op budget *)
      churned ~ds:Cset.List ~scheme:Scheme.Hyaline ~seed:43 ~bags:4;
      churned ~ds:Cset.Hashtable ~scheme:Scheme.Debra_plus ~seed:44 ~bags:4;
      (* plain breadth for both rivals *)
      Explorer.default_case ~ds:Cset.List ~scheme:Scheme.Hyaline ~seed:45;
      { (Explorer.default_case ~ds:Cset.Bst ~scheme:Scheme.Hyaline ~seed:46) with
        Explorer.strategy = Pct { depth = 3 } };
      { (Explorer.default_case ~ds:Cset.Skiplist ~scheme:Scheme.Debra_plus
           ~seed:47) with
        Explorer.bags = 1 } ]
  in
  let sound =
    [ Scheme.Qsbr; Scheme.Ebr; Scheme.Hp; Scheme.Cadence; Scheme.Qsense;
      Scheme.Debra_plus; Scheme.Hyaline ]
  in
  let breadth =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun ds ->
            List.map
              (fun seed -> Explorer.default_case ~ds ~scheme ~seed)
              (Explorer.seeds ~base:11 ~count:2))
          [ Cset.List; Cset.Skiplist; Cset.Bst; Cset.Hashtable ])
      sound
  in
  let strategies =
    List.map
      (fun scheme ->
        { (Explorer.default_case ~ds:Cset.List ~scheme ~seed:11) with
          Explorer.strategy = Pct { depth = 3 } })
      sound
  in
  let faults =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun level ->
            List.map
              (fun seed ->
                let dc = Explorer.default_case ~ds:Cset.List ~scheme ~seed in
                { dc with
                  Explorer.faults =
                    Explorer.plan level ~n:dc.n_processes ~duration:dc.duration
                      ~seed })
              (Explorer.seeds ~base:11 ~count:2))
          [ Explorer.Stalls; Explorer.Chaos; Explorer.Churn; Explorer.Victim_stall ])
      [ Scheme.Hp; Scheme.Cadence; Scheme.Qsense ]
  in
  let churn_all =
    List.map
      (fun scheme ->
        let dc = Explorer.default_case ~ds:Cset.Hashtable ~scheme ~seed:29 in
        { dc with
          Explorer.faults =
            Explorer.plan Explorer.Churn ~n:dc.n_processes ~duration:dc.duration
              ~seed:29 })
      [ Scheme.Qsbr; Scheme.Ebr ]
  in
  let fallback =
    (* the known fallback/eviction shapes: one process out cold while the
       others run against a bounded arena; the [evict] variant arms the
       §5.2 eviction timeout so the stalled victim's epoch is seized
       mid-fallback (without it Ev_evict is unreachable — eviction is off
       by default) *)
    [ stall_case ~scheme:Scheme.Qsense;
      { (stall_case ~scheme:Scheme.Qsense) with Explorer.seed = 6 };
      { (stall_case ~scheme:Scheme.Qsense) with Explorer.evict = 200_000 } ]
  in
  let bags =
    List.concat_map
      (fun scheme ->
        let dc = Explorer.default_case ~ds:Cset.List ~scheme ~seed:205 in
        let churned =
          { dc with
            Explorer.faults =
              Explorer.plan Explorer.Churn ~n:dc.n_processes ~duration:dc.duration
                ~seed:205 }
        in
        [ { churned with Explorer.bags = 1 };
          { churned with Explorer.bags = 4 } ])
      [ Scheme.Qsense; Scheme.Cadence; Scheme.Qsbr ]
  in
  rival_shapes @ breadth @ strategies @ faults @ churn_all @ fallback @ bags

let grow out args =
  let f = parse args in
  let base =
    (match f.base with None -> [] | Some path -> Explorer.load_corpus path)
    @ grow_base ()
  in
  Printf.printf "== coverage-guided growth: target %d from %d base cases (%d jobs) ==\n%!"
    f.target (List.length base) f.jobs;
  let g = Coverage.grow ~jobs:f.jobs ~budget:f.budget ~target:f.target base in
  let cases = List.map fst g.selected in
  ensure_parent out;
  let oc = open_out out in
  Printf.fprintf oc
    "# explorer seed corpus — replayed as a regression test\n\
     # grown by: dune exec bench/explore.exe -- grow %s --target %d\n\
     # coverage (cases reaching each rare event class):\n"
    out f.target;
  List.iter
    (fun (name, i) ->
      Printf.fprintf oc "#   %-15s %d\n" name g.class_counts.(i))
    Coverage.rare_classes;
  List.iter (fun c -> Printf.fprintf oc "%s\n" (Explorer.to_string c)) cases;
  close_out oc;
  Printf.printf "selected %d cases in %d runs -> %s\n" (List.length cases) g.runs out;
  let missing =
    List.filter (fun (_, i) -> g.class_counts.(i) = 0) Coverage.rare_classes
  in
  List.iter
    (fun (name, i) ->
      Printf.printf "  %-15s %4d cases%s\n" name g.class_counts.(i)
        (if g.class_counts.(i) = 0 then "  <-- NO WITNESS" else ""))
    Coverage.rare_classes;
  if missing = [] && List.length cases >= f.target then begin
    print_endline "all rare event classes witnessed";
    0
  end
  else 1

(* --- coverage: rare-class witness counts of an existing corpus ----------- *)

(* How many clean cases witness each rare event class. *)
let witness_counts results =
  let counts = Array.make Coverage.n_events 0 in
  Array.iter
    (function
      | Some ((o : Explorer.outcome), cov)
        when Explorer.same_class o.verdict Explorer.Pass ->
        List.iter
          (fun (_, j) -> if Coverage.covers cov j then counts.(j) <- counts.(j) + 1)
          Coverage.rare_classes
      | _ -> ())
    results;
  counts

let coverage path args =
  let f = parse args in
  let cases = Explorer.load_corpus path in
  Printf.printf "== corpus coverage: %d cases from %s (%d jobs) ==\n%!"
    (List.length cases) path f.jobs;
  let results =
    Explorer_pool.map ~jobs:f.jobs Coverage.run_covered (Array.of_list cases)
  in
  let class_counts = witness_counts results in
  let failed = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> incr failed
      | Some ((o : Explorer.outcome), _) ->
        if not (Explorer.same_class o.Explorer.verdict Explorer.Pass) then begin
          incr failed;
          Printf.printf "  NOT CLEAN: %s -> %s\n"
            (Explorer.to_string (List.nth cases i))
            (Explorer.verdict_to_string o.Explorer.verdict)
        end)
    results;
  List.iter
    (fun (name, i) ->
      Printf.printf "  %-15s %d witness%s\n" name class_counts.(i)
        (if class_counts.(i) = 1 then "" else "es"))
    Coverage.rare_classes;
  let missing =
    List.filter (fun (_, i) -> class_counts.(i) = 0) Coverage.rare_classes
  in
  if !failed > 0 then begin
    Printf.printf "%d case(s) not clean\n" !failed;
    1
  end
  else if missing <> [] then begin
    Printf.printf "MISSING witnesses: %s\n"
      (String.concat ", " (List.map fst missing));
    1
  end
  else begin
    print_endline "all rare event classes witnessed";
    0
  end

(* --- fingerprint: one digest per deterministic output ------------------ *)

(* Run [f] with the process's stdout redirected to a temporary file and
   return its result together with everything it printed. The redirection
   is at the descriptor level, so it catches output from any module. *)
let capture f =
  flush stdout;
  let path = Filename.temp_file "fingerprint" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let r = Fun.protect ~finally:restore f in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, text)

type section = { name : string; digest : string; lines : int }

let section name text =
  { name;
    digest = Digest.to_hex (Digest.string text);
    lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text }

let fingerprint_corpus = Filename.concat "test" "explorer.corpus"

(* The deterministic outputs a schedule-neutral change must leave alone:
   every [repro all] section (quick scale, seed 1), the committed corpus'
   rare-class witness counts and each case's verdict and step count, the
   smoke run at 3 seeds, and the sim-stall benchmark's tails. *)
let fingerprint_sections (f : flags) =
  let repro =
    List.map
      (fun (title, render) -> section ("repro " ^ title) (render ()))
      (Figures.all ~scale:Figures.Quick ~seed:1)
  in
  let cases = Array.of_list (Explorer.load_corpus fingerprint_corpus) in
  let results = Explorer_pool.map ~jobs:f.jobs Coverage.run_covered cases in
  let corpus =
    List.mapi
      (fun i r ->
        section
          (Printf.sprintf "corpus case %03d" (i + 1))
          (match r with
          | None -> "no result\n"
          | Some ((o : Explorer.outcome), _) ->
            Printf.sprintf "%s steps=%d\n"
              (Explorer.verdict_to_string o.verdict)
              o.steps))
      (Array.to_list results)
  in
  let class_counts = witness_counts results in
  let witnesses =
    section "coverage witnesses"
      (String.concat ""
         (List.map
            (fun (name, j) -> Printf.sprintf "%s %d\n" name class_counts.(j))
            Coverage.rare_classes))
  in
  let _, smoke_text = capture (fun () -> smoke_checks { f with seeds = 3 }) in
  let stall_workload = Option.get (Perfbench.Workloads.find "sim-stall") in
  let stall seed =
    let (o : Perfbench.Report.outcome), _ =
      capture (fun () ->
          Perfbench.Sim.run stall_workload ~seed ~seconds:1 ~traced:false)
    in
    section
      (Printf.sprintf "sim-stall seed %d" seed)
      (String.concat ""
         (List.map
            (fun k -> Printf.sprintf "%s %.17g\n" k (List.assoc k o.values))
            [ "p50"; "p99"; "p999"; "retired_peak" ]))
  in
  repro @ [ witnesses ] @ corpus
  @ [ section "smoke" smoke_text ]
  @ List.map stall [ 1; 2; 3 ]

let fingerprint_header =
  "# Schedule fingerprints: one line per deterministic output section\n\
   # (name, MD5 of its text, line count). Regenerate with\n\
   #   dune exec bench/explore.exe -- fingerprint\n\
   # and compare a build against this file with --check.\n"

let read_fingerprints path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match List.rev (String.split_on_char ' ' l) with
         | lines :: digest :: rev_name ->
           { name = String.concat " " (List.rev rev_name);
             digest;
             lines = int_of_string lines }
         | _ -> failwith ("malformed fingerprint line: " ^ l))

let fingerprint args =
  let check = List.mem "--check" args in
  let f = parse (List.filter (fun a -> a <> "--check") args) in
  let path = Option.value f.out ~default:"FINGERPRINTS" in
  let t0 = wall_s () in
  let sections = fingerprint_sections f in
  let dt = wall_s () -. t0 in
  if check then begin
    let committed = read_fingerprints path in
    let named l s = List.exists (fun c -> c.name = s.name) l in
    let report label l =
      List.iter (fun s -> Printf.printf "%s: %s\n" label s.name) l;
      List.length l
    in
    let changed =
      report "moved"
        (List.filter (fun s -> named committed s && not (List.mem s committed)) sections)
    in
    let added = report "new" (List.filter (fun s -> not (named committed s)) sections) in
    let gone = report "missing" (List.filter (fun c -> not (named sections c)) committed) in
    let moved = changed + added + gone in
    Printf.printf "fingerprint: %d sections, %d moved (%.1f s)\n%!"
      (List.length sections) moved dt;
    if moved = 0 then 0 else 1
  end
  else begin
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc fingerprint_header;
        List.iter
          (fun s -> Printf.fprintf oc "%s %s %d\n" s.name s.digest s.lines)
          sections);
    Printf.printf "fingerprint: %d sections -> %s (%.1f s)\n%!"
      (List.length sections) path dt;
    0
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "smoke" :: args -> exit (smoke args)
  | _ :: "corpus" :: path :: args -> exit (corpus path args)
  | _ :: "replay" :: path :: args -> exit (replay path args)
  | _ :: "profile" :: args -> exit (profile args)
  | _ :: "grow" :: out :: args -> exit (grow out args)
  | _ :: "coverage" :: path :: args -> exit (coverage path args)
  | _ :: "fingerprint" :: args -> exit (fingerprint args)
  | _ -> usage ()
