(* The KV service benchmark.

     dune exec ./perfbench/main.exe -- --workload NAME --seed N \
       --seconds S --trace 0|1

   Prints one line per metric, then, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
   end-to-end metrics; --trace 1 runs the layer ladder and reports the
   per-layer ones. Exits 1 when the correctness gate fails. *)

open Perfbench

let usage =
  "main.exe --workload (kv-read-small|kv-write-small|sim-stall) --seed N \
   --seconds S --trace (0|1)"

let watchdog_s = 170

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "trace seed");
      ("--seconds", Arg.Set_int seconds, "run length, scaling fixed request counts");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* A watchdog: a run that hangs (a livelock, say) fails within the
     time a run is allowed, instead of never returning. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: run exceeded its time limit";
         exit 3));
  ignore (Unix.alarm watchdog_s);
  let traced = !trace = 1 in
  Report.line "workload %s (seed %d, %d s, trace %d)" w.name !seed !seconds
    !trace;
  Report.line "  why: %s" w.why;
  Report.line "  loads: %s" w.loads;
  Report.line "  bypasses: %s" w.bypasses;
  let (o : Report.outcome) =
    match w.runtime with
    | Workloads.Real when traced -> Real.traced w ~seed:!seed ~seconds:!seconds
    | Workloads.Real -> Real.untraced w ~seed:!seed ~seconds:!seconds
    | Workloads.Sim -> Sim.run w ~seed:!seed ~seconds:!seconds ~traced
  in
  let metrics = Layers.select ~traced o.values in
  List.iter (fun (m, note) -> Report.print_metric ~note m) metrics;
  print_endline
    (Report.json_result ~correct:o.correct ~attempted:o.attempted
       ~failed:o.failed (List.map fst metrics));
  if not o.correct then exit 1
