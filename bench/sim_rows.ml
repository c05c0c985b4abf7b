(* The bench's simulator rows: the latency and KV
   service observatories' sim matrices and stall rows, and their JSON.
   Deterministic, so bench/main.exe writes them into BENCH_RESULTS.json and
   bench/explore.exe digests them into the schedule fingerprints. *)

module Json = Qs_util.Json

let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let scheme k = str (Qs_smr.Scheme.to_string k)

(* The p999 spike attribution of one latency or service row. *)
let attr_fields (a : Qs_obs.Metrics.attribution) =
  [ ("p999_samples", int a.Qs_obs.Metrics.attr_total);
    ("attr_pct", Json.Num (Qs_obs.Metrics.attributed_pct a));
    ("attr",
     Json.Obj
       (List.map
          (fun (c, k) -> (Qs_obs.Metrics.cause_name c, int k))
          a.Qs_obs.Metrics.attr_counts)) ]

(* One simulator run with a latency recorder and a tracer installed, as
   the latency and service observatories' rows run it (seed 23). A stall
   row stalls the highest pid from 20k ticks to the end of the run and
   sets QSense's switch threshold to C = 48, so the scheme enters
   fallback well inside the run; every row attributes its p999-bucket
   outliers against the reclamation trace. *)
let observed_sim_run ~quick ~stall (setup : Qs_harness.Sim_exp.setup) =
  let module L = Qs_obs.Latency in
  let n = setup.n_processes in
  let rec_ =
    L.recorder ~n_processes:n ~n_kinds:(Qs_harness.Target.n_kinds setup.target) ()
  in
  let tracer = Qs_obs.Tracer.create ~n_processes:n ~capacity:(1 lsl 15) () in
  let duration = if stall then 600_000 else if quick then 150_000 else 400_000 in
  let r =
    Qs_harness.Sim_exp.run
      { setup with
        duration;
        seed = 23;
        latency = Some rec_;
        sink = Some (Qs_obs.Tracer.sink tracer);
        faults =
          (if stall then
             [ Qs_sim.Scheduler.Stall_at { pid = n - 1; at = 20_000; ticks = duration } ]
           else []);
        smr_tweak =
          (if stall then fun c -> { c with Qs_smr.Smr_intf.switch_threshold = 48 }
           else Fun.id) }
  in
  let merged = L.merged rec_ in
  let threshold = L.lower_edge (L.percentile_bucket merged 99.9) in
  let attr =
    Qs_obs.Metrics.attribute_spikes
      (Qs_obs.Tracer.to_array tracer)
      ~outliers:(L.outliers rec_) ~threshold
  in
  (r, rec_, merged, attr)

module Latency = struct
  module L = Qs_obs.Latency
  module M = Qs_obs.Metrics

  type row = {
    ds : Qs_harness.Cset.kind;
    scheme : Qs_smr.Scheme.kind;
    n : int;
    stall : bool;
    ops : int;
    p50 : int;
    p99 : int;
    p999 : int;
    lmax : int;
    attr : M.attribution;
  }

  (* Shorter list than the throughput sweeps (128-key range): per-op
     latency on a 256-node list is thousands of ticks, which starves the
     histogram of samples inside the run budget. *)
  let key_range = function Qs_harness.Cset.List -> 128 | _ -> 4_096

  (* The stall row replays the calibrated robustness scenario from
     test/test_latency.ml: key range 32 keeps the victim's pinned epoch
     hot, C = 48 pushes QSense over the switch threshold well inside the
     run, and the never-ending stall leaves the fallback episode open to
     the end of the trace. *)
  let sim_row ~quick ~ds ~scheme ~n ~stall =
    let workload =
      Qs_workload.Spec.make
        ~key_range:(if stall then 32 else key_range ds)
        ~update_pct:50
    in
    let r, _, merged, attr =
      observed_sim_run ~quick ~stall
        (Qs_harness.Sim_exp.default_setup ~ds ~scheme ~n_processes:n ~workload)
    in
    { ds;
      scheme;
      n;
      stall;
      ops = r.Qs_harness.Sim_exp.ops_total;
      p50 = L.percentile merged 50.;
      p99 = L.percentile merged 99.;
      p999 = L.percentile merged 99.9;
      lmax = L.max_value merged;
      attr }

  let top_cause (a : M.attribution) =
    let named =
      List.filter
        (fun (c, k) -> c <> M.Unattributed && k > 0)
        a.M.attr_counts
    in
    match List.sort (fun (_, x) (_, y) -> compare y x) named with
    | (c, _) :: _ -> M.cause_name c
    | [] -> "-"

  let schemes =
    [ Qs_smr.Scheme.Qsbr; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Cadence;
      Qs_smr.Scheme.Qsense ]

  let rows ~quick =
    let domain_counts = if quick then [ 2 ] else [ 2; 4 ] in
    let clean =
      List.concat_map
        (fun ds ->
          List.concat_map
            (fun scheme ->
              List.map
                (fun n ->
                  let r = sim_row ~quick ~ds ~scheme ~n ~stall:false in
                  Printf.printf
                    "  %-9s %-9s %d procs: p999 %7d ticks, %d ops\n%!"
                    (Qs_harness.Cset.kind_to_string ds)
                    (Qs_smr.Scheme.to_string scheme)
                    n r.p999 r.ops;
                  r)
                domain_counts)
            schemes)
        [ Qs_harness.Cset.List; Qs_harness.Cset.Hashtable ]
    in
    let stall =
      sim_row ~quick ~ds:Qs_harness.Cset.List ~scheme:Qs_smr.Scheme.Qsense
        ~n:4 ~stall:true
    in
    Printf.printf
      "  stall row: p999 %d ticks, %d/%d spikes attributed (%.0f%%, top %s)\n%!"
      stall.p999
      (stall.attr.M.attr_total
      - List.assoc M.Unattributed stall.attr.M.attr_counts)
      stall.attr.M.attr_total
      (M.attributed_pct stall.attr)
      (top_cause stall.attr);
    clean @ [ stall ]

  let row_json (r : row) =
    Json.Obj
      ([ ("ds", str (Qs_harness.Cset.kind_to_string r.ds)); ("scheme", scheme r.scheme);
         ("procs", int r.n); ("stall", Json.Bool r.stall); ("ops", int r.ops);
         ("p50", int r.p50); ("p99", int r.p99); ("p999", int r.p999); ("max", int r.lmax) ]
      @ attr_fields r.attr)
end

module Service = struct
  module L = Qs_obs.Latency
  module M = Qs_obs.Metrics
  module Ksp = Qs_workload.Kv_spec
  module Sx = Qs_harness.Sim_exp

  type kind_row = { kops : int; kp50 : int; kp99 : int; kp999 : int }

  type row = {
    scheme : Qs_smr.Scheme.kind;
    dist : Ksp.dist;
    stall : bool;
    ops : int;
    violations : int;
    churn_events : int;
    leak_ok : bool;
    kinds : (string * kind_row) list;
    p999 : int;
    attr : M.attribution;
  }

  let dist_name = function Ksp.Uniform -> "uniform" | Ksp.Zipfian _ -> "zipfian"

  let mix = { Ksp.get_pct = 60; put_pct = 20; del_pct = 10; scan_pct = 10 }

  (* The stall row trades read-heaviness for retire pressure: the victim
     pins its epoch over a 32-key space while the survivors' deletes push
     QSense over the switch threshold, as in the latency observatory's
     calibrated scenario. No scans: range restarts under this much delete
     churn are their own (legitimate) spike source and would dilute the
     fallback attribution this row exists to measure. *)
  let stall_mix = { Ksp.get_pct = 34; put_pct = 33; del_pct = 33; scan_pct = 0 }

  (* The open-loop gap provisions each worker just under the slowest
     scheme's simulated service rate (~1.6k ticks/request for HP), so
     steady state is un-queued for every scheme and the tail comes from
     bursts (gap/4 for 8 requests every 64) and reclamation pauses, not
     from a permanently growing backlog. *)
  let make_gen ~dist ~stall ~n =
    let spec =
      if stall then Ksp.make ~keys_per_tenant:32 ~mix:stall_mix ()
      else
        Ksp.make ~tenants:2 ~dist ~keys_per_tenant:2_048 ~mix ~scan_span:16
          ~base_gap:2_000
          ~burst:{ Ksp.every = 64; len = 8; factor = 4 }
          ()
    in
    Qs_workload.Kv_gen.make spec ~n_processes:n ~ops_per_process:4_096 ~seed:23

  let sim_row ~quick ~scheme ~dist ~stall =
    let n = 4 in
    let target =
      Qs_harness.Target.Kv { gen = make_gen ~dist ~stall ~n; n_shards = 4 }
    in
    let r, rec_, merged, attr =
      observed_sim_run ~quick ~stall
        { (Sx.target_setup ~target ~scheme ~n_processes:n) with
          churn =
            (if stall then None
             else Some { Sx.every_ops = 40; downtime = 2_000 }) }
    in
    let kinds =
      List.init Ksp.n_kinds (fun k ->
          let h = L.merged_kind rec_ ~kind:k in
          ( Ksp.kind_name k,
            { kops = r.Sx.per_kind_ops.(k);
              kp50 = L.percentile h 50.;
              kp99 = L.percentile h 99.;
              kp999 = L.percentile h 99.9 } ))
    in
    { scheme;
      dist;
      stall;
      ops = r.Sx.ops_total;
      violations = r.Sx.violations;
      churn_events = r.Sx.churn_events;
      leak_ok =
        (match r.Sx.leak_check with `Ok | `Skipped -> true | `Leaked _ -> false);
      kinds;
      p999 = L.percentile merged 99.9;
      attr }

  let rows ~quick =
    let matrix =
      List.concat_map
        (fun scheme ->
          List.map
            (fun dist ->
              let r = sim_row ~quick ~scheme ~dist ~stall:false in
              Printf.printf
                "  %-9s %-8s: %6d reqs, p999 %7d ticks, %d churns%s\n%!"
                (Qs_smr.Scheme.to_string scheme)
                (dist_name r.dist) r.ops r.p999 r.churn_events
                (if r.leak_ok then "" else " LEAK");
              r)
            [ Ksp.Uniform; Ksp.Zipfian 0.9 ])
        Latency.schemes
    in
    let stall =
      sim_row ~quick ~scheme:Qs_smr.Scheme.Qsense ~dist:Ksp.Uniform
        ~stall:true
    in
    Printf.printf
      "  stall row: p999 %d ticks, %d spikes, %.0f%% attributed (top %s)\n%!"
      stall.p999 stall.attr.M.attr_total
      (M.attributed_pct stall.attr)
      (Latency.top_cause stall.attr);
    matrix @ [ stall ]

  let kind_json (name, (k : kind_row)) =
    ( name,
      Json.Obj
        [ ("ops", int k.kops); ("p50", int k.kp50); ("p99", int k.kp99);
          ("p999", int k.kp999) ] )

  let row_json (r : row) =
    Json.Obj
      ([ ("scheme", scheme r.scheme); ("dist", str (dist_name r.dist));
         ("stall", Json.Bool r.stall); ("ops", int r.ops); ("violations", int r.violations);
         ("churn_events", int r.churn_events); ("leak_ok", Json.Bool r.leak_ok);
         ("p999", int r.p999) ]
      @ attr_fields r.attr
      @ [ ("kinds", Json.Obj (List.map kind_json r.kinds)) ])
end
