(* The bench gate, and trend tracking over the committed
   BENCH_HISTORY.jsonl (one line per accepted bench run).

   - [trend.exe --check]: gate out/BENCH_RESULTS.json as the CI sequence
     leaves it (the bench command, then [explore.exe profile --out]).
     Current-run gates need no history: every section present, complete
     e2e and service matrices, churn that actually happened, the safety
     bits, ordered percentiles, attributed stall rows, and the sim-core
     bounds. They gate on structure, safety bits and relative order, never
     on absolute CI numbers (the exact-zero allocation pins live in the
     test suite, which measures the same code paths). Ratio
     gates then compare against the median of the same --quick flavour of
     history with deliberately wide tolerances (4x/8x): the history
     catches order-of-magnitude rot, not runner noise. An empty or
     missing history skips them with a note.
   - [trend.exe --append]: if the run passes the current-run gates,
     append its summary line to the history. Run locally when a change
     intentionally moves the numbers, and commit the file.

   Flags: [--results PATH] (default out/BENCH_RESULTS.json),
   [--history PATH] (default BENCH_HISTORY.jsonl). Exit 1 on any failed
   gate, with one "TREND FAIL:" line per violation; on success, one OK
   line per section. *)

module Json = Qs_util.Json

let default_results = Filename.concat "out" "BENCH_RESULTS.json"
let default_history = "BENCH_HISTORY.jsonl"

let usage () =
  prerr_endline
    "usage: trend.exe (--check | --append) [--results PATH] [--history PATH]";
  exit 2

type flags = { mode : [ `Check | `Append ] option; results : string; history : string }

let rec parse_flags acc = function
  | [] -> acc
  | "--check" :: rest -> parse_flags { acc with mode = Some `Check } rest
  | "--append" :: rest -> parse_flags { acc with mode = Some `Append } rest
  | "--results" :: p :: rest -> parse_flags { acc with results = p } rest
  | "--history" :: p :: rest -> parse_flags { acc with history = p } rest
  | a :: _ ->
    Printf.eprintf "trend.exe: unknown argument %s\n" a;
    usage ()

(* --- JSON accessors -------------------------------------------------------- *)

(* A missing or mistyped field raises [Missing], which fails the gate
   section that read it. *)
exception Missing of string

let missing k = raise (Missing (Printf.sprintf "field %S" k))
let get k j = match Json.member k j with Some v -> v | None -> missing k
let num k j = match get k j with Json.Num f -> f | _ -> missing k
let flag k j = match get k j with Json.Bool b -> b | _ -> missing k
let str k j = match get k j with Json.Str s -> s | _ -> missing k
let obj k j = match get k j with Json.Obj _ as o -> o | _ -> missing k
let arr k j = match get k j with Json.Arr xs -> xs | _ -> missing k
let opt f = try Some (f ()) with Missing _ -> None

(* The first stall row of a latency or service section: the QSense stall
   scenario. *)
let stall_row rows =
  match List.filter (flag "stall") rows with
  | r :: _ -> r
  | [] -> raise (Missing "stall row")

let unsafe row = num "violations" row <> 0. || flag "failed" row
let service_unsafe row = num "violations" row <> 0. || not (flag "leak_ok" row)

(* --- summary extraction ---------------------------------------------------- *)

(* The history line keeps only what the ratio gates compare, plus the
   row counts and safety bits as a record. Whole-run detail stays in the
   (uncommitted) out/BENCH_RESULTS.json artifacts. Called only on a run
   that passed the current-run gates. *)
let summarize results =
  let n x = Json.Num x in
  let count p rows = n (float_of_int (List.length (List.filter p rows))) in
  let e2e = arr "e2e" results in
  let latency =
    let lat = obj "latency" results in
    let rows = arr "rows" lat in
    let stall = stall_row rows in
    Json.Obj
      [ ("overhead_pct", n (num "overhead_pct" lat));
        ("rows", n (float_of_int (List.length rows)));
        ("stall_p999", n (num "p999" stall));
        ("stall_attr_pct", n (num "attr_pct" stall)) ]
  in
  let service =
    let svc = obj "service" results in
    let rows = arr "rows" svc in
    let stall = stall_row rows in
    let real = obj "real" svc in
    Json.Obj
      [ ("matrix_rows", count (fun r -> not (flag "stall" r)) rows);
        ("bad_rows", count service_unsafe rows);
        ("stall_p999", n (num "p999" stall));
        ("stall_attr_pct", n (num "attr_pct" stall));
        ("stall_fallback_spikes", n (num "fallback" (obj "attr" stall)));
        ("real_mops", n (num "throughput_mops" real));
        ("real_bad", n (if unsafe real then 1. else 0.)) ]
  in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Json.Obj
    [ ("time",
       Json.Str
         (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
            (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
            tm.Unix.tm_sec));
      ("schema", n (num "schema" results));
      ("quick", Json.Bool (flag "quick" results));
      ("e2e_rows", n (float_of_int (List.length e2e)));
      ("e2e_bad", count unsafe e2e);
      ("latency", latency);
      ("service", service) ]

(* --- history I/O ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_history path =
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" then None
           else
             match Json.parse line with
             | Ok j -> Some j
             | Error e ->
               Printf.eprintf "trend.exe: skipping malformed history line (%s)\n" e;
               None)

(* --- gates ------------------------------------------------------------------ *)

let failures : string list ref = ref []
let oks : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Runs one section's gates; the section's OK line is printed only when
   the whole run passes. *)
let section name gate results =
  match gate results with
  | ok -> oks := ok :: !oks
  | exception Missing what -> fail "%s: %s missing or mistyped" name what

let label row =
  String.concat "/"
    (List.filter_map (fun k -> opt (fun () -> str k row)) [ "ds"; "scheme"; "dist" ])

(* 0 < p50 <= p99 <= p999 [<= max]. *)
let ordered_percentiles what row keys =
  let ps = List.map (fun k -> num k row) keys in
  let rec ordered = function
    | a :: (b :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  if not (List.hd ps > 0. && ordered ps) then
    fail "%s percentiles not monotone: %s" what
      (String.concat ", "
         (List.map2 (fun k p -> Printf.sprintf "%s %g" k p) keys ps))

(* Under the injected stall, every stall row's p999 spikes must be
   recorded, >= 80% attributed to a named cause, and at least one charged
   to the fallback episode (§4). Returns the first stall row. *)
let gate_stall_rows what rows =
  List.iter
    (fun r ->
      if num "p999_samples" r <= 0. then
        fail "%s stall row %s recorded no p999 spikes (p999_samples = 0)" what
          (label r);
      let pct = num "attr_pct" r in
      if pct < 80. then
        fail "%s stall row %s only %.0f%% attributed (attr_pct >= 80 required)"
          what (label r) pct;
      if num "fallback" (obj "attr" r) <= 0. then
        fail "%s stall row %s attributes no spike to fallback dwell (attr.fallback = 0)"
          what (label r))
    (List.filter (flag "stall") rows);
  stall_row rows

(* Each stall row's attributed/total p999 spikes and its margin: how many
   attributed spikes may turn unattributed before attr_pct drops below 80
   (the fewest that pass is ceil(4n/5) of n). *)
let stall_margins rows =
  String.concat ", "
    (List.map
       (fun r ->
         let total = int_of_float (num "p999_samples" r) in
         let attributed = total - int_of_float (num "unattributed" (obj "attr" r)) in
         Printf.sprintf "%s %d/%d margin %d" (label r) attributed total
           (attributed - (((4 * total) + 4) / 5)))
       (List.filter (flag "stall") rows))

(* Sim-core profile. The step-allocation pin is the noise-immune gate: a
   scheduler step on the fast path stays under 8 minor words (it measures
   ~5: genuine suspensions allocate their continuation, inline ops
   nothing). The pool bound is relative and only applies where
   parallelism exists: >= 4 cores and >= 3 workers. *)
let gate_explorer results =
  let ex = obj "explorer" results in
  let f k = num k ex in
  let eff = f "effects_per_sec" and solo = f "schedules_per_sec_solo" in
  ignore (f "schedules_per_sec_pooled");
  let speedup = f "pool_speedup" and cores = f "cores" and jobs = f "jobs" in
  let suspended = f "dispatch_ns_per_effect" and corpus = f "dispatch_ns_corpus_cost" in
  let inline = f "dispatch_ns_inline" and step = f "step_alloc_words" in
  if step > 8. then
    fail "explorer.step_alloc_words = %g > 8 minor words per sim step (fast-path regression; was ~5)"
      step;
  if inline >= suspended then
    fail "explorer: inline dispatch not faster than suspended dispatch: %g >= %g ns"
      inline suspended;
  if cores >= 4. && jobs >= 3. && speedup < 3. then
    fail "explorer.pool_speedup = %.2fx on %.0f cores with %.0f jobs (>= 3x required)"
      speedup cores jobs;
  Printf.sprintf
    "explorer OK: %.0f eff/s, %.0f sched/s solo, %s, dispatch %.0f/%.0f/%.0f ns \
     (suspended/corpus/inline), step alloc %.1f words"
    eff solo
    (if cores >= 4. then Printf.sprintf "pool %.2fx/%.0fj" speedup jobs
     else Printf.sprintf "pool ungated (%.0f cores)" cores)
    suspended corpus inline step

let e2e_schemes = [ "qsbr"; "hp"; "cadence"; "qsense"; "debra-plus"; "hyaline" ]

(* The retire/scan micro, the real-domain e2e sweep with churn and the
   tracer A/B. The e2e matrix must be complete: every scheme x {list,
   hashtable} cell at every domain count the section ran, each row safe;
   some row should churn, and every scheme must recycle a node somewhere
   (a scheme whose frees never reach the allocator reads 0 in every row). *)
let gate_runs results =
  if arr "retire_scan" results = [] then
    fail "retire_scan is empty (retire/scan micro produced no rows)";
  let e2e = arr "e2e" results in
  if e2e = [] then fail "e2e is empty (the end-to-end sweep produced no rows)";
  let bad = List.filter unsafe e2e in
  if bad <> [] then
    fail "e2e: %d row(s) with violations or failures (%s)" (List.length bad)
      (String.concat ", " (List.map label bad));
  let domains rows = List.sort_uniq compare (List.map (num "domains") rows) in
  let show ds = String.concat "," (List.map (Printf.sprintf "%.0f") ds) in
  let want = domains e2e in
  List.iter
    (fun scheme ->
      List.iter
        (fun ds ->
          let got =
            domains (List.filter (fun r -> str "scheme" r = scheme && str "ds" r = ds) e2e)
          in
          if got <> want then
            fail "e2e matrix incomplete: %s/%s ran domains [%s], expected [%s]" scheme
              ds (show got) (show want))
        [ "list"; "hashtable" ])
    e2e_schemes;
  if not (List.exists (fun r -> num "churn_events" r > 0.) e2e) then
    fail "e2e ran with churn but no row recorded churn_events";
  List.iter
    (fun scheme ->
      let rows = List.filter (fun r -> str "scheme" r = scheme) e2e in
      if rows <> [] && List.for_all (fun r -> num "reuse_ratio" r = 0.) rows then
        fail "e2e: %s never recycled a node (reuse_ratio 0 in all %d rows)" scheme
          (List.length rows))
    e2e_schemes;
  let tr = obj "trace" results in
  if num "events_recorded_sink_on" tr <= 0. then
    fail "trace.events_recorded_sink_on = 0 (traced A/B run recorded no events)";
  Printf.sprintf
    "e2e OK: %d runs safe (%d schemes x 2 structures x [%s] domains), tracing \
     sink off %.2f vs on %.2f Mops/s"
    (List.length e2e) (List.length e2e_schemes) (show want)
    (num "real_mops_sink_off" tr) (num "real_mops_sink_on" tr)

(* Latency observatory: the recorder-on run recorded ops, every row
   carries ordered percentiles. Recorder overhead is ratio-gated against
   the history only. *)
let gate_latency results =
  let lat = obj "latency" results in
  if num "ops_recorded_on" lat <= 0. then
    fail "latency.ops_recorded_on = 0 (recorder-on A/B run recorded no ops)";
  let rows = arr "rows" lat in
  if rows = [] then fail "latency.rows is empty";
  List.iter
    (fun r ->
      ordered_percentiles ("latency row " ^ label r) r [ "p50"; "p99"; "p999"; "max" ])
    rows;
  let stall = gate_stall_rows "latency" rows in
  Printf.sprintf
    "latency OK: %d rows, overhead %.1f%% \
     (off %.2f vs on %.2f Mops/s), stall p999 %.0f ticks %.0f%% attributed \
     (spikes %s)"
    (List.length rows) (num "overhead_pct" lat) (num "real_mops_recorder_off" lat)
    (num "real_mops_recorder_on" lat) (num "p999" stall) (num "attr_pct" stall)
    (stall_margins rows)

let service_matrix =
  List.concat_map
    (fun scheme -> List.map (fun dist -> (scheme, dist)) [ "uniform"; "zipfian" ])
    [ "qsbr"; "hp"; "cadence"; "qsense" ]

(* KV service observatory: exactly the {scheme} x {distribution} matrix,
   no violations or leaks, handler churn under live traffic (sim matrix
   and real row), and ordered per-op-kind percentiles. *)
let gate_service results =
  let svc = obj "service" results in
  let rows = arr "rows" svc in
  let matrix = List.filter (fun r -> not (flag "stall" r)) rows in
  let pairs = List.sort compare (List.map (fun r -> (str "scheme" r, str "dist" r)) matrix) in
  if pairs <> List.sort compare service_matrix then
    fail "service matrix has rows [%s], expected exactly {qsbr,hp,cadence,qsense} x {uniform,zipfian}"
      (String.concat ", " (List.map (fun (s, d) -> s ^ "/" ^ d) pairs));
  let bad = List.filter service_unsafe rows in
  if bad <> [] then
    fail "service rows with violations or leaks (%s)"
      (String.concat ", " (List.map label bad));
  if not (List.exists (fun r -> num "churn_events" r > 0.) matrix) then
    fail "service matrix: no row recorded handler churn (churn_events = 0)";
  List.iter
    (fun r ->
      match obj "kinds" r with
      | Json.Obj kinds ->
        List.iter
          (fun (kind, k) ->
            if num "ops" k > 0. then
              ordered_percentiles
                (Printf.sprintf "service row %s %s" (label r) kind)
                k [ "p50"; "p99"; "p999" ])
          kinds
      | _ -> ())
    rows;
  let stall = gate_stall_rows "service" rows in
  let real = obj "real" svc in
  if unsafe real then fail "service.real row has violations or failed";
  if num "churn_events" real <= 0. then
    fail "service.real.churn_events = 0 (real-domain row recorded no handler churn)";
  Printf.sprintf
    "service OK: %d matrix rows + stall, real %.2f Mops/s x%.0f (%.0f churns), \
     stall p999 %.0f ticks %.0f%% attributed (spikes %s)"
    (List.length matrix) (num "throughput_mops" real) (num "domains" real)
    (num "churn_events" real) (num "p999" stall) (num "attr_pct" stall)
    (stall_margins rows)

let median xs =
  match List.sort compare xs with
  | [] -> None
  | sorted -> Some (List.nth sorted (List.length sorted / 2))

(* Ratio gates: the current run against the median of the history lines;
   a metric missing from old lines just thins the sample. *)
let gate_history history results =
  let vs section key current ~worse msg =
    let past = List.filter_map (fun l -> opt (fun () -> num key (obj section l))) history in
    match median past with
    | Some m when worse current m -> fail msg current m
    | _ -> ()
  in
  let lat = obj "latency" results and svc = obj "service" results in
  vs "latency" "overhead_pct" (num "overhead_pct" lat)
    ~worse:(fun c m -> c > Float.max 10. (Float.abs m *. 4.))
    "latency overhead %.1f%% vs history median %.1f%%";
  vs "latency" "stall_p999" (num "p999" (stall_row (arr "rows" lat)))
    ~worse:(fun c m -> m > 0. && c > m *. 8.)
    "stall p999 %.0f ticks vs history median %.0f (> 8x)";
  vs "service" "real_mops" (num "throughput_mops" (obj "real" svc))
    ~worse:(fun c m -> m > 0. && c < m /. 4.)
    "service real Mops %.3f vs history median %.3f (< 1/4)";
  vs "service" "stall_p999" (num "p999" (stall_row (arr "rows" svc)))
    ~worse:(fun c m -> m > 0. && c > m *. 8.)
    "service stall p999 %.0f ticks vs history median %.0f (> 8x)";
  Printf.sprintf "trend: compared against %d history line(s)" (List.length history)

let gate_current results =
  (match opt (fun () -> num "schema" results) with
  | Some 12. -> ()
  | Some s -> fail "schema is %g, expected 12" s
  | None -> fail "schema missing");
  section "explorer" gate_explorer results;
  section "runs" gate_runs results;
  section "latency" gate_latency results;
  section "service" gate_service results

(* Prints the verdict; true when every gate passed. *)
let report () =
  match !failures with
  | [] ->
    List.iter print_endline (List.rev !oks);
    true
  | fs ->
    List.iter (fun f -> Printf.printf "TREND FAIL: %s\n" f) (List.rev fs);
    false

let check ~results_path ~history_path =
  let results = Json.parse_exn (read_file results_path) in
  gate_current results;
  let history =
    let all = load_history history_path in
    let quick = opt (fun () -> flag "quick" results) in
    match List.filter (fun l -> opt (fun () -> flag "quick" l) = quick) all with
    | [] -> all (* fall back to any flavour rather than no baseline *)
    | same -> same
  in
  if history = [] then
    Printf.printf "trend: no committed history at %s — ratio gates skipped\n"
      history_path
  else section "history" (gate_history history) results;
  if report () then begin
    Printf.printf "trend OK: %s\n" (Json.to_line (summarize results));
    0
  end
  else 1

let append ~results_path ~history_path =
  let results = Json.parse_exn (read_file results_path) in
  gate_current results;
  if report () then begin
    let line = Json.to_line (summarize results) in
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644
      history_path (fun oc -> output_string oc (line ^ "\n"));
    Printf.printf "appended to %s: %s\n" history_path line;
    0
  end
  else begin
    Printf.printf "trend: run failed its gates; %s left unchanged\n" history_path;
    1
  end

let () =
  let flags =
    parse_flags
      { mode = None; results = default_results; history = default_history }
      (List.tl (Array.to_list Sys.argv))
  in
  let code =
    match flags.mode with
    | None -> usage ()
    | Some `Check ->
      check ~results_path:flags.results ~history_path:flags.history
    | Some `Append ->
      append ~results_path:flags.results ~history_path:flags.history
  in
  exit code
