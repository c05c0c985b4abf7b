(* The real-domain workloads: one worker (the main domain, pid 0) replays
   a fixed request sequence through the KV service under QSense, with
   QSense's single rooster domain beside it. Nothing here depends on how
   long anything took: every pass replays a fixed number of requests, so
   two commits do identical work and reach identical GC and limbo state.

   The request sequence is one trace, consumed in order:
     warm-up | rounds of (timed window, latency segment) | census
   - window: no clock read inside; throughput is the fast end of the
     windows ({!Est.windows});
   - latency segment: one clock read per request; percentiles come from
     the quietest 1% of the segments, pooled;
   - census: untimed; samples the service-wide retired count after every
     request (and, when traced, counts events through the sink). *)

module Ksp = Qs_workload.Kv_spec
module R = Qs_real.Real_runtime
module K = Qs_service.Kv.Make (R)
module Table = Qs_ds.Hashtable.Make (R)
module Index = Qs_ds.Skiplist.Make (R)

let rooster_ns = 2_000_000

let n_shards = 4

let config scheme =
  let base = Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme in
  { base with
    smr =
      { base.smr with rooster_interval = rooster_ns; epsilon = rooster_ns / 2 } }

(* {1 Sizing} — request counts only: [seconds] scales them through a
   fixed nominal rate per workload, never through a measured one. *)

type plan = {
  warmup : int;
  rounds : int;
  window : int;  (* requests per timed window *)
  segment : int;  (* requests per latency (or span) segment *)
  census : int;
}

(* Requests per second one worker roughly sustains on each workload. *)
let nominal_rate (w : Workloads.t) =
  if w.name = Workloads.read_small.name then 2_500_000 else 400_000

(* Many short rounds, so that some of them fall in the host's quiet
   phases: a window of about 8 ms and a latency segment of about 0.4 ms
   (at least 256 requests, so a segment's median still ranks it),
   repeated until [seconds] of nominal work is spent. *)
let plan (w : Workloads.t) ~seconds =
  let rate = nominal_rate w in
  let window = rate / 125 and segment = max 256 (rate / 2_500) in
  { warmup = rate / 10;
    rounds = rate * seconds / (window + segment);
    window;
    segment;
    census = rate / 4 }

(* Latency percentiles pool the quietest 1% of the segments, as the
   throughput takes the fastest 1% of the windows, but never fewer
   segments than hold twice the samples p999 needs. *)
let quiet_segments p =
  let need = 2 * Est.samples_needed 99.9 in
  min p.rounds (max (p.rounds / 100) ((need + p.segment - 1) / p.segment))

let total p = p.warmup + (p.rounds * (p.window + p.segment)) + p.census

(* {1 The trace} — a power-of-two slice of {!Qs_workload.Kv_gen}'s stream,
   replayed cyclically, so memory stays bounded however long the run. *)

let max_trace = 1 lsl 20

type trace = { ops : Ksp.op array; mask : int }

let make_trace (w : Workloads.t) ~seed ~requests =
  let len = ref 1 in
  while !len < requests && !len < max_trace do len := !len * 2 done;
  let gen =
    Qs_workload.Kv_gen.make w.spec ~n_processes:1 ~ops_per_process:!len ~seed
  in
  { ops = Qs_workload.Kv_gen.stream gen ~pid:0; mask = !len - 1 }

let[@inline] op tr i = Array.unsafe_get tr.ops (i land tr.mask)

(* The initial keys in a seeded random order. (A bulk load in key order
   is far cheaper, but lays the nodes out in chain order: the first
   seconds then run up to twice as fast as the steady state.) *)
let prefill_keys (w : Workloads.t) ~seed =
  let keys = Array.of_list (Ksp.initial_keys w.spec) in
  Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:(seed + 1)) keys;
  keys

(* {1 Replaying through a target} *)

module type TARGET = sig
  type ctx

  val get : ctx -> int -> bool
  val put : ctx -> int -> bool
  val del : ctx -> int -> bool
  val scan : ctx -> lo:int -> hi:int -> int
end

module Drive (T : TARGET) = struct
  let[@inline] apply ctx (tally : Model.tally) op =
    match op with
    | Ksp.Get k -> if T.get ctx k then tally.(0) <- tally.(0) + 1
    | Ksp.Put k -> if T.put ctx k then tally.(1) <- tally.(1) + 1
    | Ksp.Del k -> if T.del ctx k then tally.(2) <- tally.(2) + 1
    | Ksp.Scan (lo, hi) -> tally.(3) <- tally.(3) + T.scan ctx ~lo ~hi

  let replay ctx tally tr ~first ~n =
    for i = first to first + n - 1 do
      apply ctx tally (op tr i)
    done

  (* Wall time of [n] requests, clocks read only at the edges. *)
  let window ctx tally tr ~first ~n =
    let t0 = Est.now_ns () in
    replay ctx tally tr ~first ~n;
    Est.now_ns () - t0

  (* Per-request service time of [Array.length scratch] requests, one
     clock read per request (each read ends one request and starts the
     next), sorted and stored at [buf.(off)]. Allocates nothing. *)
  let latencies ctx tally tr ~first ~scratch ~buf ~off =
    let n = Array.length scratch in
    let prev = ref (Est.now_ns ()) in
    for j = 0 to n - 1 do
      apply ctx tally (op tr (first + j));
      let t = Est.now_ns () in
      Array.unsafe_set scratch j (t - !prev);
      prev := t
    done;
    Array.sort Int.compare scratch;
    Array.blit scratch 0 buf off n
end

module Dk = Drive (K)

(* The raw structures the service is built from, without shard routing or
   the heartbeat: one table with the service's whole bucket budget (Kv's
   shards together hold [Table.default_buckets * 4]) and one index,
   maintained exactly as Kv maintains it. *)
module Raw = struct
  type t = { tables : Table.t; indexes : Index.t }
  type ctx = { table : Table.ctx; index : Index.ctx }

  let create cfg =
    let tables =
      Table.create_sized ~n_buckets:(Table.default_buckets * 4) cfg
    in
    let indexes = Index.create cfg in
    ( { tables; indexes },
      { table = Table.register tables ~pid:0;
        index = Index.register indexes ~pid:0 } )

  let get c k = Table.search_ro c.table k

  let put c k =
    let added = Table.insert c.table k in
    if added then ignore (Index.insert c.index k);
    added

  let del c k =
    let removed = Table.delete c.table k in
    if removed then ignore (Index.delete c.index k);
    removed

  let scan c ~lo ~hi = Index.range_count c.index ~lo ~hi
end

module Dr = Drive (Raw)

(* {1 The correctness gate} — answers, final contents, index size,
   structural invariants and use-after-free oracle violations. *)

let expected_outcome w ~seed p tr =
  let prefill = Array.to_list (prefill_keys w ~seed) in
  Model.replay ~prefill ~op:(op tr) ~n:(total p)

let invalid f = match f () with () -> 0 | exception Failure _ -> 1

let check_service ~expected svc ctx tally =
  Model.disagreements ~expected ~got:(tally, K.to_list ctx)
  + K.violations svc
  + abs (K.index_size ctx - List.length (snd expected))
  + invalid (fun () -> K.validate ctx)

let check_raw ~expected (t : Raw.t) (c : Raw.ctx) tally =
  Model.disagreements ~expected ~got:(tally, Table.to_list c.table)
  + Table.violations t.tables + Index.violations t.indexes
  + abs (Index.size c.index - List.length (snd expected))
  + invalid (fun () -> Table.validate c.table; Index.validate c.index)

(* {1 Helpers} *)

let secs_since t0 = float_of_int (Est.now_ns () - t0) /. 1e9

let timed f =
  let t0 = Est.now_ns () in
  let v = f () in
  (secs_since t0, v)

let with_roosters f =
  R.register_self 0;
  let roosters = Qs_real.Roosters.start ~interval_ns:rooster_ns ~n:1 in
  Fun.protect ~finally:(fun () -> Qs_real.Roosters.stop roosters) f

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let print_windows ~label ~reqs durs =
  let w = Est.windows ~reqs durs in
  Report.line "  %s: fastest %g%% of %d windows of %d requests: %.4f Mops/s \
               (median window %.4f, slowest %.4f, spread %.1f%%)"
    label Est.fast_pct w.n_windows reqs w.fast_mops w.median_mops w.worst_mops
    (100. *. Est.window_spread w);
  w

let print_correctness ~failed ~requests =
  Report.line "  correctness: %d disagreement(s) with the sequential model \
               over %d requests" failed requests

(* {1 Untraced run: the end-to-end metrics} *)

let n_setups = 5

let untraced (w : Workloads.t) ~seed ~seconds =
  let p = plan w ~seconds in
  let cfg = config Qs_smr.Scheme.Qsense in
  (* every latency sample, allocated once so the rounds allocate nothing *)
  let lat = Array.make (p.rounds * p.segment) 0
  and scratch = Array.make p.segment 0 in
  with_roosters (fun () ->
      (* A set-up starts from a clean heap. The first one is measured; the
         other [n_setups - 1] run at the end, and the median of all is
         reported. *)
      let setup () =
        Gc.full_major ();
        timed (fun () ->
            let tr = make_trace w ~seed ~requests:(total p) in
            let svc = K.create ~n_shards cfg in
            let ctx = K.register svc ~pid:0 in
            Array.iter (fun k -> ignore (K.put ctx k)) (prefill_keys w ~seed);
            let tally = Model.new_tally () in
            Dk.replay ctx tally tr ~first:0 ~n:p.warmup;
            (tr, svc, ctx, tally))
      in
      let first_setup, (tr, svc, ctx, tally) = setup () in
      Gc.full_major ();
      let durs = Array.make p.rounds 0 in
      let i = ref p.warmup in
      for r = 0 to p.rounds - 1 do
        durs.(r) <- Dk.window ctx tally tr ~first:!i ~n:p.window;
        i := !i + p.window;
        Dk.latencies ctx tally tr ~first:!i ~scratch ~buf:lat
          ~off:(r * p.segment);
        i := !i + p.segment
      done;
      let retired_peak = ref (K.retired_count svc) in
      for j = !i to !i + p.census - 1 do
        Dk.apply ctx tally (op tr j);
        retired_peak := max !retired_peak (K.retired_count svc)
      done;
      let heap = heap_peak_mb () in
      let failed =
        check_service ~expected:(expected_outcome w ~seed p tr) svc ctx tally
      in
      let win = print_windows ~label:"throughput" ~reqs:p.window durs in
      let keep = quiet_segments p in
      let pool = Est.quiet_pool ~keep ~len:p.segment lat in
      let pcts =
        List.map
          (fun (name, q) ->
            let (b : Est.pct) = Est.percentile pool q in
            Report.line "  %s_ns = %d ns over the quietest %d of %d segments: \
                         %d samples, %d beyond%s"
              name b.value keep p.rounds b.samples b.beyond
              (if Est.tail_ok b then "" else "  TOO FEW SAMPLES");
            (name, b))
          [ ("p50", 50.); ("p99", 99.); ("p999", 99.9) ]
      in
      print_correctness ~failed ~requests:(total p);
      let setups =
        Array.append [| first_setup |]
          (Array.init (n_setups - 1) (fun _ -> fst (setup ())))
      in
      { Report.correct = failed = 0 && List.for_all (fun (_, q) -> Est.tail_ok q) pcts;
        attempted = total p;
        failed;
        values =
          [ ("throughput_mops", win.fast_mops);
            ("retired_peak", float_of_int !retired_peak);
            ("heap_peak_mb", heap);
            ("setup_s", Est.median_float setups) ]
          @ List.map (fun (n, (q : Est.pct)) -> (n, float_of_int q.value)) pcts })

(* {1 Traced run: the layer ladder}

   One trace, three rungs, each replaying the identical request sequence
   from an identically prefilled state:
     1. raw table + index under Leaky (the paper's "None");
     2. the same under QSense;
     3. the Kv service under QSense.
   Each round is an untimed-inside window (the rung's cost per request)
   followed by a span segment that times every call into the layer below
   and keeps the spans in memory. Rung 3 then runs the census with the
   counting sink installed. *)

(* Span kinds: the service's four calls and the six structure calls. *)
let sp_get = 0 and sp_put = 1 and sp_del = 2 and sp_scan = 3
let sp_tsearch = 4 and sp_tinsert = 5 and sp_tdelete = 6
let sp_iinsert = 7 and sp_idelete = 8 and sp_irange = 9

(* Every span in order: its kind and its duration. *)
type spans = { kinds : Bytes.t; durs : int array; mutable n : int }

(* A raw put or delete records two spans (table, then index). *)
let spans p =
  let capacity = 2 * p.rounds * p.segment in
  { kinds = Bytes.create capacity; durs = Array.make capacity 0; n = 0 }

let[@inline] span sp k t0 =
  let t1 = Est.now_ns () in
  Bytes.unsafe_set sp.kinds sp.n (Char.unsafe_chr k);
  sp.durs.(sp.n) <- t1 - t0;
  sp.n <- sp.n + 1

let mean_span sp k =
  let s = ref 0 and c = ref 0 in
  for j = 0 to sp.n - 1 do
    if Char.code (Bytes.unsafe_get sp.kinds j) = k then begin
      s := !s + sp.durs.(j);
      incr c
    end
  done;
  if !c = 0 then 0. else float_of_int !s /. float_of_int !c

(* Span segments: wall time of the whole segment is returned too, so the
   traced rate can be set against the untraced one. *)
let service_spans sp ctx (tally : Model.tally) tr ~first ~n =
  let t_seg = Est.now_ns () in
  for i = first to first + n - 1 do
    let t0 = Est.now_ns () in
    match op tr i with
    | Ksp.Get k ->
      let r = K.get ctx k in
      span sp sp_get t0;
      if r then tally.(0) <- tally.(0) + 1
    | Ksp.Put k ->
      let r = K.put ctx k in
      span sp sp_put t0;
      if r then tally.(1) <- tally.(1) + 1
    | Ksp.Del k ->
      let r = K.del ctx k in
      span sp sp_del t0;
      if r then tally.(2) <- tally.(2) + 1
    | Ksp.Scan (lo, hi) ->
      let r = K.scan ctx ~lo ~hi in
      span sp sp_scan t0;
      tally.(3) <- tally.(3) + r
  done;
  Est.now_ns () - t_seg

let raw_spans sp (c : Raw.ctx) (tally : Model.tally) tr ~first ~n =
  let t_seg = Est.now_ns () in
  for i = first to first + n - 1 do
    match op tr i with
    | Ksp.Get k ->
      let t0 = Est.now_ns () in
      let r = Table.search_ro c.table k in
      span sp sp_tsearch t0;
      if r then tally.(0) <- tally.(0) + 1
    | Ksp.Put k ->
      let t0 = Est.now_ns () in
      let r = Table.insert c.table k in
      span sp sp_tinsert t0;
      if r then begin
        tally.(1) <- tally.(1) + 1;
        let t0 = Est.now_ns () in
        ignore (Index.insert c.index k);
        span sp sp_iinsert t0
      end
    | Ksp.Del k ->
      let t0 = Est.now_ns () in
      let r = Table.delete c.table k in
      span sp sp_tdelete t0;
      if r then begin
        tally.(2) <- tally.(2) + 1;
        let t0 = Est.now_ns () in
        ignore (Index.delete c.index k);
        span sp sp_idelete t0
      end
    | Ksp.Scan (lo, hi) ->
      let t0 = Est.now_ns () in
      let r = Index.range_count c.index ~lo ~hi in
      span sp sp_irange t0;
      tally.(3) <- tally.(3) + r
  done;
  Est.now_ns () - t_seg

type rung = {
  ns_per_req : float;  (* fast end of the windows *)
  traced_ns_per_req : float;  (* fast end of the span segments *)
  sp : spans;
}

let rung_of p ~durs ~seg_durs sp =
  let ns d n = 1e3 /. (Est.windows ~reqs:n d).fast_mops in
  { ns_per_req = ns durs p.window; traced_ns_per_req = ns seg_durs p.segment; sp }

(* Rounds of (window, span segment) over [first, ...). *)
let ladder_rounds p ~window ~span_segment =
  let durs = Array.make p.rounds 0 and seg_durs = Array.make p.rounds 0 in
  let i = ref p.warmup in
  for r = 0 to p.rounds - 1 do
    durs.(r) <- window ~first:!i ~n:p.window;
    i := !i + p.window;
    seg_durs.(r) <- span_segment ~first:!i ~n:p.segment;
    i := !i + p.segment
  done;
  (durs, seg_durs, !i)

let raw_rung w ~seed p tr ~expected scheme =
  Gc.full_major ();
  let t, c = Raw.create (config scheme) in
  Array.iter (fun k -> ignore (Raw.put c k)) (prefill_keys w ~seed);
  let tally = Model.new_tally () in
  Dr.replay c tally tr ~first:0 ~n:p.warmup;
  let sp = spans p in
  let durs, seg_durs, i =
    ladder_rounds p
      ~window:(Dr.window c tally tr)
      ~span_segment:(raw_spans sp c tally tr)
  in
  Dr.replay c tally tr ~first:i ~n:p.census;
  let failed = check_raw ~expected t c tally in
  (rung_of p ~durs ~seg_durs sp, failed)

let traced (w : Workloads.t) ~seed ~seconds =
  (* three rungs share the run's budget *)
  let p = plan w ~seconds:(max 1 (seconds / 3)) in
  with_roosters (fun () ->
      let gen_s, tr = timed (fun () -> make_trace w ~seed ~requests:(total p)) in
      let expected = expected_outcome w ~seed p tr in
      let leaky, failed1 = raw_rung w ~seed p tr ~expected Qs_smr.Scheme.None_ in
      let raw, failed2 = raw_rung w ~seed p tr ~expected Qs_smr.Scheme.Qsense in
      (* rung 3: the service *)
      Gc.full_major ();
      let prefill_s, (svc, ctx) =
        timed (fun () ->
            let svc = K.create ~n_shards (config Qs_smr.Scheme.Qsense) in
            let ctx = K.register svc ~pid:0 in
            Array.iter (fun k -> ignore (K.put ctx k)) (prefill_keys w ~seed);
            (svc, ctx))
      in
      let tally = Model.new_tally () in
      Dk.replay ctx tally tr ~first:0 ~n:p.warmup;
      let sp = spans p in
      let gc_minor = ref 0. and gc_major = ref 0 in
      let durs, seg_durs, i =
        ladder_rounds p
          ~window:(fun ~first ~n ->
            let m0 = Gc.minor_words () and j0 = (Gc.quick_stat ()).major_collections in
            let d = Dk.window ctx tally tr ~first ~n in
            gc_minor := !gc_minor +. (Gc.minor_words () -. m0);
            gc_major := !gc_major + ((Gc.quick_stat ()).major_collections - j0);
            d)
          ~span_segment:(service_spans sp ctx tally tr)
      in
      let service = rung_of p ~durs ~seg_durs sp in
      (* census: every scheme instance through the counting sink *)
      let sink = Counting_sink.create ~n_processes:1 in
      let shard_hits = Array.make (K.n_shards svc) 0 and point = ref 0 in
      let before = K.report svc in
      let outstanding_peak = ref (K.outstanding svc) in
      R.set_sink (Some (Counting_sink.sink sink));
      for j = i to i + p.census - 1 do
        let o = op tr j in
        (match o with
        | Ksp.Get k | Ksp.Put k | Ksp.Del k ->
          let s = K.shard_index svc k in
          shard_hits.(s) <- shard_hits.(s) + 1;
          incr point
        | Ksp.Scan _ -> ());
        Dk.apply ctx tally o;
        outstanding_peak := max !outstanding_peak (K.outstanding svc)
      done;
      R.set_sink None;
      let after = K.report svc in
      let failed3 = check_service ~expected svc ctx tally in
      let failed = failed1 + failed2 + failed3 in
      let window_reqs = p.rounds * p.window in
      let allocs = after.allocations - before.allocations in
      let fresh = after.fresh_nodes - before.fresh_nodes in
      let per_1k c = Layers.per_1k c ~requests:p.census in
      let count ev = per_1k (Counting_sink.count sink ev) in
      let open Qs_intf.Runtime_intf in
      Report.line "  ladder (fast-end window, ns/request): leaky raw %.1f | \
                   qsense raw %.1f | qsense kv %.1f"
        leaky.ns_per_req raw.ns_per_req service.ns_per_req;
      print_correctness ~failed ~requests:(3 * total p);
      { Report.correct = failed = 0;
        attempted = 3 * total p;
        failed;
        values =
          [ ("workload.gen_s", gen_s);
            ("workload.prefill_s", prefill_s);
            ("service.get_ns", mean_span sp sp_get);
            ("service.put_ns", mean_span sp sp_put);
            ("service.del_ns", mean_span sp sp_del);
            ("service.scan_ns", mean_span sp sp_scan);
            ("service.self_ns", service.ns_per_req -. raw.ns_per_req);
            ( "service.shard_max_share",
              float_of_int (Array.fold_left max 0 shard_hits)
              /. float_of_int (max 1 !point) );
            ("ds.table_search_ns", mean_span raw.sp sp_tsearch);
            ("ds.table_insert_ns", mean_span raw.sp sp_tinsert);
            ("ds.table_delete_ns", mean_span raw.sp sp_tdelete);
            ("ds.index_insert_ns", mean_span raw.sp sp_iinsert);
            ("ds.index_delete_ns", mean_span raw.sp sp_idelete);
            ("ds.index_range_ns", mean_span raw.sp sp_irange);
            ("smr.overhead_ns", raw.ns_per_req -. leaky.ns_per_req);
            ("smr.retires", count Ev_retire);
            ("smr.frees", count Ev_free);
            ("smr.scans", count Ev_scan_end);
            ("smr.epoch_advances", count Ev_epoch_advance);
            ("smr.bag_seals", count Ev_bag_seal);
            ("smr.adopted_nodes", per_1k sink.adopted_nodes);
            ("smr.frees_per_scan", Counting_sink.frees_per_scan sink);
            ("smr.empty_scans_pct", Counting_sink.empty_scans_pct sink);
            ("smr.fallback_entries", float_of_int (Counting_sink.count sink Ev_fallback_enter));
            ("smr.fallback_exits", float_of_int (Counting_sink.count sink Ev_fallback_exit));
            ("smr.fallback_dwell_ticks", float_of_int sink.fallback_dwell);
            ("smr.scan_busy_ticks", float_of_int sink.scan_busy);
            ("arena.allocs_per_req", float_of_int allocs /. float_of_int p.census);
            ( "arena.reuse_pct",
              if allocs = 0 then 0.
              else 100. *. float_of_int (allocs - fresh) /. float_of_int allocs );
            ("arena.outstanding_peak", float_of_int !outstanding_peak);
            ("gc.minor_words_per_req", !gc_minor /. float_of_int window_reqs);
            ("gc.major_per_mreq", 1e6 *. float_of_int !gc_major /. float_of_int window_reqs);
            ("obs.record_ns", Layers.obs_record_ns ());
            ( "trace.overhead_pct",
              100. *. ((service.traced_ns_per_req /. service.ns_per_req) -. 1.) ) ] })
