(* Positive and negative controls for the bench gate, [trend.exe].

   Usage: gate_test.exe TREND_EXE RESULTS HISTORY. The committed
   reference results must pass [--check] against the committed history.
   Each doctored copy, one per gated property, must exit 1 with a
   "TREND FAIL:" line naming the broken check. [--append] must refuse a
   failing run without touching the history, and add exactly one
   parseable line for a passing one. *)

module Json = Qs_util.Json

(* --- doctoring helpers ------------------------------------------------------ *)

let rec at path f j =
  match path with
  | [] -> f j
  | k :: rest -> Json.set_member k (at rest f (Option.get (Json.member k j))) j

let set path v = at path (fun _ -> v)
let num x = Json.Num x
let is k v row = Json.member k row = Some v
let is_str k s = is k (Json.Str s)
let stall = is "stall" (Json.Bool true)
let arr f = function Json.Arr xs -> Json.Arr (f xs) | j -> j

(* Rewrites the rows of the array at [path]: [f] on every row matching
   [p] ([~first] only the first). *)
let rows ?(first = false) path p f =
  at path
    (arr (fun xs ->
         let hit = ref false in
         List.map
           (fun r ->
             if p r && not (first && !hit) then begin
               hit := true;
               f r
             end
             else r)
           xs))

let drop path p = at path (arr (List.filter (fun r -> not (p r))))
let any _ = true

(* (name, doctoring, text the TREND FAIL line must contain) *)
let cases =
  [ ("schema", set [ "schema" ] (num 11.), "schema is 11, expected 12");
    ("explorer step alloc", set [ "explorer"; "step_alloc_words" ] (num 9.),
     "explorer.step_alloc_words");
    ("explorer null", set [ "explorer" ] Json.Null, "field \"explorer\"");
    ("inline dispatch slower",
     set [ "explorer"; "dispatch_ns_inline" ] (num 1000.), "inline dispatch");
    ("pool speedup",
     (fun d ->
       d
       |> set [ "explorer"; "cores" ] (num 4.)
       |> set [ "explorer"; "jobs" ] (num 3.)
       |> set [ "explorer"; "pool_speedup" ] (num 2.)),
     "explorer.pool_speedup");
    ("retire_scan empty", set [ "retire_scan" ] (Json.Arr []), "retire_scan is empty");
    ("e2e empty", set [ "e2e" ] (Json.Arr []), "e2e is empty");
    ("e2e violation", rows ~first:true [ "e2e" ] any (Json.set_member "violations" (num 1.)),
     "e2e: 1 row(s) with violations");
    ("rival cell removed",
     drop [ "e2e" ] (fun r -> is_str "scheme" "hyaline" r && is_str "ds" "hashtable" r),
     "e2e matrix incomplete: hyaline/hashtable");
    ("incumbent cell removed",
     drop [ "e2e" ] (fun r ->
         is_str "scheme" "qsense" r && is_str "ds" "list" r && is "domains" (num 1.) r),
     "e2e matrix incomplete: qsense/list ran domains [2], expected [1,2]");
    ("e2e never churned", rows [ "e2e" ] any (Json.set_member "churn_events" (num 0.)),
     "no row recorded churn_events");
    ("hp never recycled",
     rows [ "e2e" ] (is_str "scheme" "hp") (Json.set_member "reuse_ratio" (num 0.)),
     "e2e: hp never recycled a node");
    ("trace recorded nothing", set [ "trace"; "events_recorded_sink_on" ] (num 0.),
     "trace.events_recorded_sink_on");
    ("latency null", set [ "latency" ] Json.Null, "field \"latency\"");
    ("latency recorded nothing", set [ "latency"; "ops_recorded_on" ] (num 0.),
     "latency.ops_recorded_on");
    ("latency rows empty", set [ "latency"; "rows" ] (Json.Arr []), "latency.rows is empty");
    ("latency p99 > p999",
     rows ~first:true [ "latency"; "rows" ] any (fun r ->
         Json.set_member "p99" (num 1e9) r),
     "not monotone");
    ("latency p999 > max",
     rows ~first:true [ "latency"; "rows" ] any (fun r ->
         Json.set_member "max" (num 1.) r),
     "not monotone");
    ("latency stall no spikes",
     rows [ "latency"; "rows" ] stall (Json.set_member "p999_samples" (num 0.)),
     "latency stall row list/qsense recorded no p999 spikes");
    ("latency stall unattributed",
     rows [ "latency"; "rows" ] stall (Json.set_member "attr_pct" (num 50.)),
     "only 50% attributed");
    ("latency stall not fallback",
     rows [ "latency"; "rows" ] stall
       (at [ "attr" ] (fun a ->
            a |> Json.set_member "fallback" (num 0.) |> Json.set_member "scan" (num 5.))),
     "latency stall row list/qsense attributes no spike to fallback");
    ("service null", set [ "service" ] Json.Null, "field \"service\"");
    ("service pair duplicated",
     rows [ "service"; "rows" ]
       (fun r -> is_str "scheme" "qsbr" r && is_str "dist" "zipfian" r)
       (Json.set_member "dist" (Json.Str "uniform")),
     "service matrix has rows");
    ("service leak",
     rows ~first:true [ "service"; "rows" ] any (Json.set_member "leak_ok" (Json.Bool false)),
     "service rows with violations or leaks");
    ("service matrix never churned",
     rows [ "service"; "rows" ] any (Json.set_member "churn_events" (num 0.)),
     "service matrix: no row recorded handler churn");
    ("service kind not monotone",
     rows ~first:true [ "service"; "rows" ] any
       (at [ "kinds"; "get"; "p50" ] (fun _ -> num 1e9)),
     "service row qsbr/uniform get percentiles not monotone");
    ("service stall no spikes",
     rows [ "service"; "rows" ] stall (Json.set_member "p999_samples" (num 0.)),
     "service stall row qsense/uniform recorded no p999 spikes");
    ("service stall not fallback",
     rows [ "service"; "rows" ] stall (at [ "attr"; "fallback" ] (fun _ -> num 0.)),
     "service stall row qsense/uniform attributes no spike to fallback");
    ("service real unsafe", set [ "service"; "real"; "failed" ] (Json.Bool true),
     "service.real row has violations or failed");
    ("service real no churn", set [ "service"; "real"; "churn_events" ] (num 0.),
     "service.real.churn_events");
    ("service real throughput", set [ "service"; "real"; "throughput_mops" ] (num 0.001),
     "service real Mops") ]

(* --- running trend.exe ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_temp contents =
  let path = Filename.temp_file "gate_test" ".json" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  path

(* Exit code and stdout of [trend.exe args]. *)
let run trend args =
  let ic = Unix.open_process_args_in trend (Array.of_list (trend :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> (-1, out)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let failed = ref 0

let expect name ok detail =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failed;
    Printf.printf "FAIL %s\n%s\n" name detail
  end

let () =
  let trend, results, history =
    match Sys.argv with
    | [| _; t; r; h |] ->
      ((if Filename.is_implicit t then Filename.concat Filename.current_dir_name t else t), r, h)
    | _ ->
      prerr_endline "usage: gate_test.exe TREND_EXE RESULTS HISTORY";
      exit 2
  in
  let reference = Json.parse_exn (read_file results) in
  let check doc =
    let path = write_temp (Json.to_string doc) in
    let r = run trend [ "--check"; "--results"; path; "--history"; history ] in
    Sys.remove path;
    r
  in
  let code, out = check reference in
  expect "committed reference passes" (code = 0) out;
  List.iter
    (fun (name, doctor, needle) ->
      let code, out = check (doctor reference) in
      let named =
        List.exists
          (fun line -> contains ~sub:"TREND FAIL:" line && contains ~sub:needle line)
          (String.split_on_char '\n' out)
      in
      expect name (code = 1 && named)
        (Printf.sprintf "  expected exit 1 and a TREND FAIL line containing %S; got exit %d:\n%s"
           needle code out))
    cases;
  (* --append gates first: a failing run leaves the history untouched. *)
  let hist_copy = write_temp (read_file history) in
  let bad = write_temp (Json.to_string (set [ "explorer"; "step_alloc_words" ] (num 9.) reference)) in
  let before = read_file hist_copy in
  let code, out = run trend [ "--append"; "--results"; bad; "--history"; hist_copy ] in
  expect "append refuses a failing run" (code = 1 && read_file hist_copy = before) out;
  let good = write_temp (Json.to_string reference) in
  let code, out = run trend [ "--append"; "--results"; good; "--history"; hist_copy ] in
  let added =
    let after = read_file hist_copy in
    let n = String.length before in
    if String.length after > n && String.sub after 0 n = before then
      String.split_on_char '\n' (String.trim (String.sub after n (String.length after - n)))
    else []
  in
  expect "append adds one parseable line for a passing run"
    (code = 0
    && match added with [ line ] -> Result.is_ok (Json.parse line) | _ -> false)
    out;
  List.iter Sys.remove [ hist_copy; bad; good ];
  if !failed > 0 then begin
    Printf.printf "%d gate control(s) failed\n" !failed;
    exit 1
  end
