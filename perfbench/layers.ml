(* The metric catalogue: every metric the benchmark reports, by name and
   unit, in the order it is printed. A workload supplies values by name;
   per-layer metrics a workload does not exercise read 0 and are marked
   n/a (see NOTES.md for which apply where). *)

let end_to_end =
  [ ("throughput_mops", "Mops/s");
    ("p50", "ns-or-ticks");
    ("p99", "ns-or-ticks");
    ("p999", "ns-or-ticks");
    ("retired_peak", "nodes");
    ("heap_peak_mb", "MB");
    ("setup_s", "s") ]

let per_layer =
  [ ("workload.gen_s", "s");
    ("workload.prefill_s", "s");
    ("service.get_ns", "ns");
    ("service.put_ns", "ns");
    ("service.del_ns", "ns");
    ("service.scan_ns", "ns");
    ("service.self_ns", "ns");
    ("service.shard_max_share", "share");
    ("ds.table_search_ns", "ns");
    ("ds.table_insert_ns", "ns");
    ("ds.table_delete_ns", "ns");
    ("ds.index_insert_ns", "ns");
    ("ds.index_delete_ns", "ns");
    ("ds.index_range_ns", "ns");
    ("smr.overhead_ns", "ns");
    ("smr.retires", "per-1k-req");
    ("smr.frees", "per-1k-req");
    ("smr.scans", "per-1k-req");
    ("smr.epoch_advances", "per-1k-req");
    ("smr.bag_seals", "per-1k-req");
    ("smr.adopted_nodes", "per-1k-req");
    ("smr.frees_per_scan", "nodes/scan");
    ("smr.empty_scans_pct", "%");
    ("smr.fallback_entries", "count");
    ("smr.fallback_exits", "count");
    ("smr.fallback_dwell_ticks", "ticks");
    ("smr.scan_busy_ticks", "ticks");
    ("arena.allocs_per_req", "per-req");
    ("arena.reuse_pct", "%");
    ("arena.outstanding_peak", "nodes");
    ("gc.minor_words_per_req", "words/req");
    ("gc.major_per_mreq", "per-Mreq");
    ("sim.ticks_per_req", "ticks/req");
    ("sim.wall_ns_per_req", "ns");
    ("sim.rooster_fires", "count");
    ("obs.record_ns", "ns");
    ("trace.overhead_pct", "%") ]

(* [values] must name every end-to-end metric; a missing per-layer
   metric is reported as 0 (not exercised by this workload). *)
let select ~traced values =
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Layers.select: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> (Report.metric name unit_ v, "")
      | None when traced -> (Report.metric name unit_ 0., "n/a")
      | None -> invalid_arg ("Layers.select: missing metric " ^ name))
    catalogue

let per_1k count ~requests =
  1000. *. float_of_int count /. float_of_int (max 1 requests)

(* Cost of one {!Qs_obs.Latency.observe}: the best of several timed
   batches (the recorder the simulated service keeps on for every
   request). *)
let obs_record_ns () =
  let r = Qs_obs.Latency.recorder ~n_processes:1 ~n_kinds:4 () in
  let n = 200_000 in
  let best = ref max_int in
  for _ = 1 to 7 do
    let t0 = Est.now_ns () in
    for i = 0 to n - 1 do
      Qs_obs.Latency.observe r ~pid:0 ~kind:(i land 3) ~start:i
        ~dur:(i land 4095)
    done;
    best := min !best (Est.now_ns () - t0)
  done;
  float_of_int !best /. float_of_int n
