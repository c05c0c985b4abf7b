(* Explorer CLI (see EXPERIMENTS.md, "Schedule exploration" and
   "Exploration at scale").

   Subcommands:

   - [corpus PATH [--jobs N] [--repro-out OUT]] — replay a corpus of
     known-clean cases through the pool with the counting sink and report
     how many cases witness each rare event class; exit 1 if a case is not
     clean or any class has no witness (the corpus contract grow enforces
     at build time, re-checked here independently; [fingerprint] applies
     the same check to the committed file). The first dirty case is shrunk
     and its repro saved to OUT. Cases run through the worker-domain pool
     ([--jobs], default cores-1); shrinking stays on the coordinator.
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
     mix (the clean sweep at 2 seeds and the churn sweep at 1, from
     [Explorer]'s case families), solo and through the pool, plus
     minor-allocation words per scheduler step; merges an "explorer"
     section into PATH (out/BENCH_RESULTS.json, written by bench/main.exe,
     whose schema number it keeps) when it exists.
   - [grow OUT [--target N] [--jobs N] [--budget N] [--base PATH]] —
     coverage-guided corpus growth: breed [--target] known-clean cases from
     a deterministic frontier (plus [--base] corpus, if given), keeping
     witnesses for every rare event class (fallback entry, eviction-seize,
     unregister, adoption, bag sealing, neutralization); writes the corpus
     to OUT. Exit 1 if a rare class ends up with no witness.
   - [fingerprint [--check] [--out PATH] [--jobs N] [--repro-out OUT]] —
     run every deterministic output (each [repro all] section at quick
     scale, seed 1; the committed corpus' witness counts and each case's
     verdict, linearizability status and step count; the same three for
     each case of [Explorer]'s case families at 3 seeds, which
     test/test_explorer.ml judges; the sim-stall benchmark's p50/p99/p999
     and retired peak at seeds 1-3; the bench's [--quick] latency.rows and
     service.rows) and write one line per section — name, MD5 digest, line
     count — to PATH (default FINGERPRINTS). With [--check], compare
     against PATH instead, name every section that moved, is new or is
     missing, and exit 1 if any did. Either way it exits 1, naming the
     culprit, when a corpus case is not clean (the first one is shrunk and
     saved to OUT, as [corpus] does) or a rare class has no witness; a
     regenerating run then writes nothing. Run from the repository
     root.

   Everything is deterministic: equal case lines give equal verdicts, solo
   or pooled, whatever the job count. *)

open Qs_harness
module Scheme = Qs_smr.Scheme

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
    "usage: explore.exe corpus PATH [--jobs N] [--repro-out OUT]\n\
    \       explore.exe replay PATH [--trace OUT]\n\
    \       explore.exe profile [--jobs N] [--repeat N] [--out PATH]\n\
    \       explore.exe grow OUT [--target N] [--jobs N] [--budget N] [--base PATH]\n\
    \       explore.exe fingerprint [--check] [--out PATH] [--jobs N] [--repro-out OUT]";
  exit 2

(* Flag values are validated here: a typo'd [--jobs x2] or [--jobs 0] gets
   the usage message, not an [int_of_string] exception. *)
let pos_int ~flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ ->
    Printf.eprintf "explore.exe: %s expects a positive integer, got %S\n" flag v;
    usage ()

type flags = {
  jobs : int;
  repro_out : string;
  target : int;
  budget : int;
  repeat : int;
  out : string option;
  base : string option;
}

let default_flags =
  { jobs = Explorer_pool.default_jobs ();
    repro_out = default_repro_out;
    target = 64;
    budget = 1_500;
    repeat = 6;
    out = None;
    base = None }

let rec parse_flags acc = function
  | [] -> acc
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
           [ "--jobs"; "--repro-out"; "--target"; "--budget"; "--repeat";
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

(* --- subcommands --------------------------------------------------------- *)

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

(* Representative case mix: fair, PCT, fault-plan and churn schedules
   across the sound schemes — the workloads corpus replay and the explorer
   tests are made of. Fixed, so numbers are comparable run to run. *)
let profile_batch () = Explorer.sweep_cases ~seeds:2 @ Explorer.churn_cases ~seeds:1

let wall_s () = float_of_int (Qs_real.Real_runtime.now ()) /. 1e9

(* Raw dispatch cost: four fibers spinning plain reads/writes on private
   cells — no data structure, no oracle, no history. Isolates the
   scheduler's per-effect overhead (perform, handler dispatch, accounting,
   pick) from everything the explorer builds on top.

   Two cost models. [`Ties] charges every process identically, so clocks
   march in lockstep and (almost) every pick is a tie: the owned-schedule
   fast path never applies and the number is the pure suspension-path
   cost. [`Corpus] uses the stall model the explorer's cases run under
   ([Explorer.stall_cost]), whose stalls open the clock gaps that real
   schedules have — the blended cost of inline and suspended dispatch at
   a representative mix. *)
let raw_dispatch_ns model =
  let open Qs_sim in
  let cfg = Scheduler.default_config ~n_cores:4 ~seed:1 in
  let cfg =
    match model with
    | `Ties -> cfg
    | `Corpus -> { cfg with Scheduler.cost = Explorer.stall_cost }
  in
  let sched = Scheduler.create cfg in
  (* Disjoint per-process cell rings: writes spread over cells, as data
     structure operations do. *)
  let cells = Array.init 4 (fun _ -> Array.init 64 (fun _ -> Cell.make_plain 0)) in
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
  let ring = Array.init 64 (fun _ -> Cell.make_plain 0) in
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
    [ Explorer.stall_case ~scheme:Scheme.Qsense ~seed:5;
      Explorer.stall_case ~scheme:Scheme.Qsense ~seed:6;
      { (Explorer.stall_case ~scheme:Scheme.Qsense ~seed:5) with
        Explorer.evict = 200_000 } ]
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

(* Cases witnessing each rare event class, one line per class. *)
let print_witnesses counts =
  List.iter
    (fun (name, i) ->
      Printf.printf "  %-15s %4d witness%s\n" name counts.(i)
        (if counts.(i) = 1 then "" else "es"))
    Coverage.rare_classes

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
  print_witnesses g.class_counts;
  if
    List.for_all (fun (_, i) -> g.class_counts.(i) > 0) Coverage.rare_classes
    && List.length cases >= f.target
  then begin
    print_endline "all rare event classes witnessed";
    0
  end
  else 1

(* --- corpus: replay a corpus, with its rare-class witness counts ---------- *)

let clean (o : Explorer.outcome) = Explorer.same_class o.verdict Explorer.Pass

(* How many clean cases witness each rare event class. *)
let witness_counts results =
  let counts = Array.make Coverage.n_events 0 in
  Array.iter
    (fun (o, cov) ->
      if clean o then
        List.iter
          (fun (_, j) -> if Coverage.covers cov j then counts.(j) <- counts.(j) + 1)
          Coverage.rare_classes)
    results;
  counts

(* Replay a corpus through the pool with the counting sink: each case's
   result, the rare-class witness counts and what failed, one line each (a
   case that is not clean, named by its line; a rare class with no
   witness), also printed as [FAIL:] lines. The first dirty case is shrunk
   and its repro saved to [repro_out]. *)
let replay_corpus ~jobs ~repro_out cases =
  let results = Explorer_pool.map ~jobs Coverage.run_covered cases in
  let class_counts = witness_counts results in
  let dirty =
    List.filter_map
      (fun i ->
        let o, _ = results.(i) in
        if clean o then None else Some (i, cases.(i), o))
      (List.init (Array.length cases) Fun.id)
  in
  let failures =
    List.map
      (fun (i, c, (o : Explorer.outcome)) ->
        Printf.sprintf "corpus case %03d not clean (%s): %s" (i + 1)
          (Explorer.verdict_to_string o.verdict)
          (Explorer.to_string c))
      dirty
    @ List.filter_map
        (fun (name, j) ->
          if class_counts.(j) = 0 then Some ("no witness: " ^ name) else None)
        Coverage.rare_classes
  in
  List.iter (Printf.printf "FAIL: %s\n") failures;
  (match dirty with
  | (_, c, o) :: _ -> persist_failure ~repro_out c o
  | [] -> ());
  (results, class_counts, failures)

let corpus path args =
  let f = parse args in
  let cases = Array.of_list (Explorer.load_corpus path) in
  Printf.printf "== corpus replay: %d cases from %s (%d jobs) ==\n%!"
    (Array.length cases) path f.jobs;
  let _, class_counts, failures =
    replay_corpus ~jobs:f.jobs ~repro_out:f.repro_out cases
  in
  print_witnesses class_counts;
  if failures <> [] then 1
  else begin
    print_endline "corpus clean; all rare event classes witnessed";
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

(* A case's verdict, whether its history was checked for linearizability
   and its step count: a case that stops being checked moves. A memory
   verdict or a worker's death comes before the check. *)
let outcome_line (o : Explorer.outcome) =
  Printf.sprintf "%s lin=%s steps=%d\n"
    (Explorer.verdict_to_string o.verdict)
    (match o.verdict with
    | Uaf _ | Double_free _ | Oom _ | Worker_exn _ -> "unchecked"
    | Pass | Not_linearizable _ | Leaked _ -> "ok")
    o.steps

(* Every case of [Explorer]'s families that test/test_explorer.ml judges,
   at its seeds there. *)
let family_cases () =
  let controls = Explorer.seeds ~base:1 ~count:3 in
  List.map Explorer.unsafe_hp_case controls
  @ List.map Explorer.leaky_case controls
  @ Explorer.sweep_cases ~seeds:3
  @ Explorer.churn_cases ~seeds:3
  @ List.map
      (fun scheme -> Explorer.stall_case ~scheme ~seed:5)
      [ Scheme.Qsense; Scheme.Qsbr ]

(* The deterministic outputs a schedule-neutral change must leave alone:
   every [repro all] section (quick scale, seed 1), the committed corpus'
   rare-class witness counts and each case's outcome line, the outcome
   line of every family case (digested, not judged), the sim-stall
   benchmark's tails, and the bench's latency and service sim rows. Also
   returns what failed on its own terms, whatever the committed digests
   say: a corpus case that is not clean, a rare class with no witness. *)
let fingerprint_sections (f : flags) =
  let repro =
    List.map
      (fun (title, render) -> section ("repro " ^ title) (render ()))
      (Figures.all ~scale:Figures.Quick ~seed:1)
  in
  let results, class_counts, failures =
    replay_corpus ~jobs:f.jobs ~repro_out:f.repro_out
      (Array.of_list (Explorer.load_corpus fingerprint_corpus))
  in
  let corpus =
    List.mapi
      (fun i (o, _) -> section (Printf.sprintf "corpus case %03d" (i + 1)) (outcome_line o))
      (Array.to_list results)
  in
  let witnesses =
    section "coverage witnesses"
      (String.concat ""
         (List.map
            (fun (name, j) -> Printf.sprintf "%s %d\n" name class_counts.(j))
            Coverage.rare_classes))
  in
  let sweep =
    section "sweep cases"
      (String.concat ""
         (List.map
            (fun (_, o) -> outcome_line o)
            (Explorer_pool.outcomes ~jobs:f.jobs (family_cases ()))))
  in
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
  (* the bench's sim rows as bench/main.exe --quick writes them *)
  let bench_rows name rows row_json =
    let rows, _ = capture (fun () -> rows ~quick:true) in
    section ("bench " ^ name)
      (String.concat ""
         (List.map (fun r -> Qs_util.Json.to_string (row_json r) ^ "\n") rows))
  in
  ( repro @ [ witnesses ] @ corpus
    @ [ sweep ]
    @ List.map stall [ 1; 2; 3 ]
    @ [ bench_rows "latency.rows" Sim_rows.Latency.rows Sim_rows.Latency.row_json;
        bench_rows "service.rows" Sim_rows.Service.rows Sim_rows.Service.row_json ],
    failures )

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
  let sections, failures = fingerprint_sections f in
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
    Printf.printf "fingerprint: %d sections, %d moved, %d failed (%.1f s)\n%!"
      (List.length sections) moved (List.length failures) dt;
    if moved = 0 && failures = [] then 0 else 1
  end
  else if failures <> [] then begin
    Printf.printf "fingerprint: %d failed; %s not written (%.1f s)\n%!"
      (List.length failures) path dt;
    1
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
  | _ :: "corpus" :: path :: args -> exit (corpus path args)
  | _ :: "replay" :: path :: args -> exit (replay path args)
  | _ :: "profile" :: args -> exit (profile args)
  | _ :: "grow" :: out :: args -> exit (grow out args)
  | _ :: "fingerprint" :: args -> exit (fingerprint args)
  | _ -> usage ()
