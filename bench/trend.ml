(* Bench trend tracking over the committed BENCH_HISTORY.jsonl.

   BENCH_HISTORY.jsonl is an append-only record, one compact JSON line
   per accepted bench run, committed to the repo so CI can diff the
   current run against where the numbers have historically been:

   - [trend.exe --append]: summarize the current out/BENCH_RESULTS.json
     into one history line and append it. Run locally when landing a
     change that intentionally moves the numbers, and commit the file.
   - [trend.exe --check]: gate the current out/BENCH_RESULTS.json.
     Structural invariants, the exact-zero allocation pins and the hard
     safety bits (violations/failed, stall-row attribution) always gate;
     throughput-ish ratios are compared against the history median with
     deliberately wide tolerances (4x/8x) so shared CI runners never
     flake the build — the history exists to catch order-of-magnitude
     rot, not 10% noise. An empty or missing history passes the
     comparison step with a note (the current-run gates still apply).

   Flags: [--results PATH] (default out/BENCH_RESULTS.json),
   [--history PATH] (default BENCH_HISTORY.jsonl). Exit 1 on any failed
   gate, with one "TREND FAIL:" line per violation. *)

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

(* --- tiny JSON accessors -------------------------------------------------- *)

let num j k =
  match Json.member k j with Some (Json.Num f) -> Some f | _ -> None

let bool_ j k =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

let arr j k = match Json.member k j with Some a -> Json.to_list a | None -> []

let require what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "results missing %s" what)

(* One-line serializer: [Json.to_string] is the two-space pretty printer,
   but .jsonl needs exactly one line per record. *)
let rec compact = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f
  | Json.Str s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  | Json.Arr xs -> "[" ^ String.concat ", " (List.map compact xs) ^ "]"
  | Json.Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (compact v)) fields)
    ^ "}"

(* --- summary extraction --------------------------------------------------- *)

(* The history line keeps only what --check compares: the pins, the
   safety bits and the headline ratios. Whole-run detail stays in the
   (uncommitted) out/BENCH_RESULTS.json artifacts. *)
let summarize results =
  let schema = require "schema" (num results "schema") in
  let bags = require "bags object" (Json.member "bags" results) in
  let count_bad rows =
    List.length
      (List.filter
         (fun r ->
           num r "violations" <> Some 0. || bool_ r "failed" <> Some false)
         rows)
  in
  let e2e = arr results "e2e" and rivals = arr results "rivals" in
  let trace = require "trace object" (Json.member "trace" results) in
  let latency =
    match Json.member "latency" results with
    | None | Some Json.Null -> Json.Null
    | Some lat ->
      let stall_row =
        List.find_opt
          (fun r -> bool_ r "stall" = Some true)
          (arr lat "rows")
      in
      let stall_p999, stall_attr =
        match stall_row with
        | Some r ->
          ( require "stall p999" (num r "p999"),
            require "stall attr_pct" (num r "attr_pct") )
        | None -> (0., 0.)
      in
      Json.Obj
        [ ("alloc_words", Json.Num (require "latency alloc" (num lat "alloc_words_per_record")));
          ("overhead_pct", Json.Num (require "latency overhead" (num lat "overhead_pct")));
          ("rows", Json.Num (float_of_int (List.length (arr lat "rows"))));
          ("stall_p999", Json.Num stall_p999);
          ("stall_attr_pct", Json.Num stall_attr) ]
  in
  let service =
    match Json.member "service" results with
    | None | Some Json.Null -> Json.Null
    | Some svc ->
      let rows = arr svc "rows" in
      let matrix = List.filter (fun r -> bool_ r "stall" = Some false) rows in
      let bad =
        List.length
          (List.filter
             (fun r ->
               num r "violations" <> Some 0. || bool_ r "leak_ok" <> Some true)
             rows)
      in
      let stall_row =
        List.find_opt (fun r -> bool_ r "stall" = Some true) rows
      in
      let stall_p999, stall_attr, stall_fallback =
        match stall_row with
        | Some r ->
          ( require "service stall p999" (num r "p999"),
            require "service stall attr_pct" (num r "attr_pct"),
            (match Json.member "attr" r with
            | Some a -> Option.value ~default:0. (num a "fallback")
            | None -> 0.) )
        | None -> (0., 0., 0.)
      in
      let real = require "service real row" (Json.member "real" svc) in
      Json.Obj
        [ ("get_alloc_words",
           Json.Num
             (require "service get alloc" (num svc "get_alloc_words_per_op")));
          ("matrix_rows", Json.Num (float_of_int (List.length matrix)));
          ("bad_rows", Json.Num (float_of_int bad));
          ("stall_p999", Json.Num stall_p999);
          ("stall_attr_pct", Json.Num stall_attr);
          ("stall_fallback_spikes", Json.Num stall_fallback);
          ("real_mops", Json.Num (require "service real mops" (num real "throughput_mops")));
          ("real_bad",
           Json.Num
             (if num real "violations" = Some 0. && bool_ real "failed" = Some false
              then 0.
              else 1.)) ]
  in
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Json.Obj
    [ ("time",
       Json.Str
         (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
            (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
            tm.Unix.tm_sec));
      ("schema", Json.Num schema);
      ("quick", Json.Bool (bool_ results "quick" = Some true));
      ("churn", Json.Bool (bool_ results "churn" = Some true));
      ("bag_retire_alloc_words",
       Json.Num (require "bags.retire_alloc_words" (num bags "retire_alloc_words")));
      ("trace_alloc_disabled",
       Json.Num (require "trace alloc disabled" (num trace "alloc_words_per_event_disabled")));
      ("trace_alloc_enabled",
       Json.Num (require "trace alloc enabled" (num trace "alloc_words_per_event_enabled")));
      ("e2e_rows", Json.Num (float_of_int (List.length e2e)));
      ("e2e_bad", Json.Num (float_of_int (count_bad e2e)));
      ("rival_rows", Json.Num (float_of_int (List.length rivals)));
      ("rival_bad", Json.Num (float_of_int (count_bad rivals)));
      ("latency", latency);
      ("service", service) ]

(* --- history I/O ----------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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

(* --- check gates ----------------------------------------------------------- *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let median xs =
  match List.sort compare xs with
  | [] -> None
  | sorted -> Some (List.nth sorted (List.length sorted / 2))

(* Ratio gates compare against the median of the (same --quick flavour)
   history; a missing metric in old lines just thins the sample. *)
let history_metric history key section =
  List.filter_map
    (fun line ->
      match Json.member section line with
      | Some (Json.Obj _ as o) -> num o key
      | _ -> None)
    history

let check ~results_path ~history_path =
  let results = Json.parse_exn (read_file results_path) in
  let summary = summarize results in
  (* -- structural + pins + safety: always gate, no history needed -- *)
  if num results "schema" <> Some 10. then
    fail "schema is %s, expected 10"
      (match num results "schema" with
      | Some f -> Printf.sprintf "%.0f" f
      | None -> "missing");
  let pin name v = if v <> Some 0. then
    fail "%s = %s (exact-zero allocation pin)" name
      (match v with Some f -> Printf.sprintf "%.4f" f | None -> "missing")
  in
  pin "bags.retire_alloc_words" (num summary "bag_retire_alloc_words");
  pin "trace.alloc_words_per_event_disabled" (num summary "trace_alloc_disabled");
  pin "trace.alloc_words_per_event_enabled" (num summary "trace_alloc_enabled");
  if num summary "e2e_bad" <> Some 0. then
    fail "e2e rows with violations/failures";
  if num summary "rival_bad" <> Some 0. then
    fail "rival rows with violations/failures";
  (match Json.member "latency" summary with
  | Some (Json.Obj _ as lat) ->
    pin "latency.alloc_words_per_record" (num lat "alloc_words");
    let attr = Option.value ~default:0. (num lat "stall_attr_pct") in
    if attr < 80. then
      fail "stall-row attribution %.0f%% < 80%%" attr;
    if Option.value ~default:0. (num lat "stall_p999") <= 0. then
      fail "stall-row p999 is zero (no tail recorded)"
  | _ -> ());
  (match Json.member "service" summary with
  | Some (Json.Obj _ as svc) ->
    pin "service.get_alloc_words_per_op" (num svc "get_alloc_words");
    if num svc "matrix_rows" <> Some 8. then
      fail "service matrix has %s rows, expected 8 ({qsbr,hp,cadence,qsense} x {uniform,zipfian})"
        (match num svc "matrix_rows" with
        | Some f -> Printf.sprintf "%.0f" f
        | None -> "missing");
    if num svc "bad_rows" <> Some 0. then
      fail "service rows with violations or leaks";
    if num svc "real_bad" <> Some 0. then
      fail "service real-domain row has violations or failed";
    let attr = Option.value ~default:0. (num svc "stall_attr_pct") in
    if attr < 80. then
      fail "service stall-row attribution %.0f%% < 80%%" attr;
    if Option.value ~default:0. (num svc "stall_fallback_spikes") <= 0. then
      fail "service stall row has no fallback-attributed spikes"
  | _ -> ());
  (* -- ratio gates vs committed history (wide tolerance) -- *)
  let history =
    let all = load_history history_path in
    let quick = bool_ summary "quick" in
    match List.filter (fun l -> bool_ l "quick" = quick) all with
    | [] -> all (* fall back to any flavour rather than no baseline *)
    | same -> same
  in
  (if history = [] then
     Printf.printf "trend: no committed history at %s — ratio gates skipped\n"
       history_path
   else
     (match Json.member "latency" summary with
     | Some (Json.Obj _ as lat) ->
       let hist_lat key = history_metric history key "latency" in
       (match (num lat "overhead_pct", median (hist_lat "overhead_pct")) with
       | Some c, Some m ->
         if c > Float.max 10. (Float.abs m *. 4.) then
           fail "latency overhead %.1f%% vs history median %.1f%%" c m
       | _ -> ());
       (match (num lat "stall_p999", median (hist_lat "stall_p999")) with
       | Some c, Some m when m > 0. ->
         if c > m *. 8. then
           fail "stall p999 %.0f ticks vs history median %.0f (> 8x)" c m
       | _ -> ())
     | _ -> ());
     (match Json.member "service" summary with
     | Some (Json.Obj _ as svc) ->
       let hist_svc key = history_metric history key "service" in
       (match (num svc "real_mops", median (hist_svc "real_mops")) with
       | Some c, Some m when m > 0. ->
         if c < m /. 4. then
           fail "service real Mops %.3f vs history median %.3f (< 1/4)" c m
       | _ -> ());
       (match (num svc "stall_p999", median (hist_svc "stall_p999")) with
       | Some c, Some m when m > 0. ->
         if c > m *. 8. then
           fail "service stall p999 %.0f ticks vs history median %.0f (> 8x)" c m
       | _ -> ())
     | _ -> ());
     Printf.printf "trend: compared against %d history line(s)\n"
       (List.length history));
  match !failures with
  | [] ->
    Printf.printf "trend OK: %s\n" (compact summary);
    0
  | fs ->
    List.iter (fun f -> Printf.printf "TREND FAIL: %s\n" f) (List.rev fs);
    1

let append ~results_path ~history_path =
  let results = Json.parse_exn (read_file results_path) in
  let summary = summarize results in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 history_path
  in
  output_string oc (compact summary);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended to %s: %s\n" history_path (compact summary);
  0

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
