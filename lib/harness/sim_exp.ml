(** Experiment runner over the deterministic simulator.

    One experiment = N worker processes, one per virtual core, driving a
    {!Target} — a set under a random op mix, or the KV service replaying
    a request trace — for a fixed span of virtual time, with optional
    delay injection (a chosen victim process sleeping through given
    windows, as in the paper's §7.2 robustness runs) and an optional arena
    capacity (exceeding it models running out of memory). Throughput is
    operations per million virtual ticks — the analogue of the paper's
    Mops/s. *)

open Qs_sim

type delays = { victim : int; windows : (int * int) list }

type churn = { every_ops : int; downtime : int }

type setup = {
  target : Target.t;
  scheme : Qs_smr.Scheme.kind;
  n_processes : int;
  duration : int;
  ops_limit : int option;
      (** stop each worker after this many completed operations *)
  seed : int;
  capacity : int option;
  delays : delays option;
  churn : churn option;
      (** worker churn: every [every_ops] completed operations, each worker
          with pid > 0 unregisters (donating its limbo lists to the orphan
          pool), sits out [downtime] ticks, and re-registers under the same
          pid. Pid 0 stays put so the fill/teardown context stays alive. *)
  sample_every : int;  (** bucket width of the throughput series; 0 = none *)
  latency : Qs_obs.Latency.recorder option;
      (** per-{pid × op-kind} online histograms + top-K outliers, recorded
          via meta-level clock reads ([Scheduler.clock_of]) so schedules
          are byte-identical with the recorder on or off *)
  faults : Scheduler.fault list;
      (** injected after the fill, re-armed by the clock reset, so fault
          times are in measured time *)
  sink : Qs_intf.Runtime_intf.sink option;
      (** trace sink (e.g. [Qs_obs.Tracer.sink]), installed after the fill
          so the trace covers measured time only; [None] = tracing off *)
  history : Qs_verify.History.t option;
      (** per-op invocation/response record of a [Set] target, for the
          linearizability check, stamped with the scheduler's step index *)
  smr_tweak : Qs_smr.Smr_intf.config -> Qs_smr.Smr_intf.config;
  sched_tweak : Scheduler.config -> Scheduler.config;
}

let target_setup ~target ~scheme ~n_processes =
  { target;
    scheme;
    n_processes;
    duration = 300_000;
    ops_limit = None;
    seed = 1;
    capacity = None;
    delays = None;
    churn = None;
    sample_every = 0;
    latency = None;
    faults = [];
    sink = None;
    history = None;
    smr_tweak = Fun.id;
    sched_tweak = Fun.id }

let default_setup ~ds ~scheme ~n_processes ~workload =
  target_setup
    ~target:(Target.Set { ds; workload })
    ~scheme ~n_processes

type result = {
  ops_total : int;
  per_worker_ops : int array;
  per_kind_ops : int array;
  throughput : float;  (** ops per million virtual ticks *)
  series : float array;  (** ops/Mtick per sample bucket *)
  failed_at : int option;  (** virtual time of memory exhaustion, if any *)
  violations : int;
  report : Qs_ds.Set_intf.report;
  final_size : int;
  contents : int list;
  churn_events : int;
      (** completed leave/rejoin cycles across all workers, from [churn]
          and from [Churn_at] faults *)
  leak_check : [ `Ok | `Leaked of int | `Skipped ];
      (** after teardown flush: do outstanding nodes match live nodes? *)
}

type measured = {
  steps : int;
  failures : (int * exn) list;
  failed_at : int option;
  ops_total : int;
  violations : int;
  report : Qs_ds.Set_intf.report;
  teardown : unit -> result;
}

(* The paper's defaults scaled to simulator ticks: rooster interval T and
   the quiescence/scan thresholds. *)
let default_rooster_interval = 4_000
let default_epsilon = 600

let base_smr_config ~n_processes =
  { (Qs_smr.Smr_intf.default_config ~n_processes ~hp_per_process:2) with
    quiescence_threshold = 32;
    scan_threshold = 32;
    rooster_interval = default_rooster_interval;
    epsilon = default_epsilon }

module T = Target.Make (Sim_runtime)

let cset_of = T.cset_of

(* End of the delay window [t] falls in, if any. Top-level recursion,
   not [List.find_opt]: no closure per operation. *)
let rec window_end t = function
  | [] -> None
  | (a, b) :: rest -> if a <= t && t < b then Some b else window_end t rest

let measure (setup : setup) : measured =
  let n = setup.n_processes in
  let sched_cfg =
    setup.sched_tweak
      { (Scheduler.default_config ~n_cores:n ~seed:setup.seed) with
        rooster_interval =
          (if Qs_smr.Scheme.needs_roosters setup.scheme then
             Some default_rooster_interval
           else None);
        rooster_oversleep = default_epsilon / 2 }
  in
  let sched = Scheduler.create sched_cfg in
  (* the history's clock is the global step index: a meta-level read, like
     the latency recorder's [clock_of], so recording moves no schedule *)
  let history =
    Option.map (fun h -> (h, fun () -> Scheduler.steps sched)) setup.history
  in
  let module D = (val T.driver ?history setup.target) in
  let cfg =
    { Qs_ds.Set_intf.scheme = setup.scheme;
      smr = setup.smr_tweak (base_smr_config ~n_processes:n);
      capacity = setup.capacity;
      debug_checks = true }
  in
  let state = D.create cfg in
  let ctxs = Array.init n (fun pid -> D.register state ~pid) in
  (* Pre-fill to half the key range from a single process (§7.1). *)
  Scheduler.exec sched ~pid:0 (fun () ->
      (* shuffled so that unbalanced structures (the external BST) do not
         degenerate under an ascending fill *)
      let keys = Array.of_list D.initial_keys in
      Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:setup.seed) keys;
      Array.iter (D.fill ctxs.(0)) keys);
  (* faults go in after the fill (so they cannot fire during it) and
     before the clock reset, which re-arms them on the measured time base *)
  if setup.faults <> [] then Scheduler.inject sched setup.faults;
  (* measured time starts now, not after the fill *)
  Scheduler.reset_clocks sched;
  (* install the trace sink only now, so traces cover measured time only
     (fill-phase timestamps would precede the clock reset) *)
  Scheduler.set_sink sched setup.sink;
  let n_buckets =
    if setup.sample_every > 0 then (setup.duration / setup.sample_every) + 1 else 0
  in
  let buckets = Array.make (max n_buckets 1) 0 in
  let per_worker_ops = Array.make n 0 in
  let per_kind_ops = Array.make (Target.n_kinds setup.target) 0 in
  let failed_at = ref None in
  let churn_counts = Array.make n 0 in
  let master = Qs_util.Prng.create ~seed:(setup.seed + 7919) in
  let prngs = Array.init n (fun _ -> Qs_util.Prng.split master) in
  (* Open loop: op [i] is due at its scheduled arrival. An early worker
     idles until then; a late one starts at once, and its latency still
     counts from the arrival, so queueing behind a reclamation pause lands
     in the tail percentiles. *)
  let open_loop = D.arrival ~pid:0 ~i:1 > 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn sched ~pid (fun () ->
        let ctx = ref ctxs.(pid) in
        (* leave: retire the SMR slot (limbo lists go to the orphan pool),
           sit out, rejoin under the same pid *)
        let leave downtime =
          D.unregister !ctx;
          Sim_runtime.sleep_until (Sim_runtime.now () + downtime);
          ctx := D.register state ~pid;
          ctxs.(pid) <- !ctx;
          churn_counts.(pid) <- churn_counts.(pid) + 1
        in
        let windows =
          match setup.delays with
          | Some d when d.victim = pid -> d.windows
          | _ -> []
        in
        (* Worker churn: next op count at which this worker leaves. Staggered
           by pid so the workers do not all vacate at once. *)
        let next_churn =
          match setup.churn with
          | Some c when pid > 0 && c.every_ops > 0 ->
            ref (c.every_ops + (pid * c.every_ops / n))
          | _ -> ref max_int
        in
        let rec loop () =
          (* a fired [Churn_at] fault only queues the request (polling is
             effect-free); registration belongs to the scheme, so the
             leave / sit-out / rejoin is the worker's to perform *)
          (match Scheduler.take_churn sched ~pid with
          | Some downtime -> leave downtime
          | None -> ());
          (match setup.churn with
          | Some c when per_worker_ops.(pid) >= !next_churn ->
            leave c.downtime;
            next_churn := !next_churn + c.every_ops
          | _ -> ());
          let i = per_worker_ops.(pid) in
          let due = D.arrival ~pid ~i in
          let t = Sim_runtime.now () in
          let t =
            if open_loop && due > t then begin
              Sim_runtime.sleep_until due;
              due
            end
            else t
          in
          let under_limit =
            match setup.ops_limit with None -> true | Some l -> i < l
          in
          if t < setup.duration && under_limit && !failed_at = None then begin
            (match window_end t windows with
            | Some b ->
              (* clamp: no point sleeping past the end of the experiment *)
              Sim_runtime.sleep_until (min b setup.duration)
            | None ->
              (* The operation body is the interruptible region for
                 neutralization signals (DEBRA+ restarting a laggard, or an
                 injected [Neutralize_at] fault): delivery only happens
                 while the opt-in flag is up, never during the churn
                 leave/rejoin or the delay sleep. An aborted operation is
                 retried by the loop and not counted; a history keeps it
                 as pending. *)
              Scheduler.set_neutralizable sched ~pid true;
              (try
                 let kind = D.step !ctx prngs.(pid) ~pid ~i in
                 (match setup.latency with
                 | Some r ->
                   (* [clock_of] is a meta-level read of the core clock —
                      no effect is performed, so recording cannot shift
                      the seeded schedule (same contract as [E_emit]). *)
                   let start = if open_loop then due else t in
                   Qs_obs.Latency.observe r ~pid ~kind ~start
                     ~dur:(Scheduler.clock_of sched ~pid - start)
                 | None -> ());
                 per_worker_ops.(pid) <- i + 1;
                 per_kind_ops.(kind) <- per_kind_ops.(kind) + 1;
                 if setup.sample_every > 0 then begin
                   let b = t / setup.sample_every in
                   if b < Array.length buckets then
                     buckets.(b) <- buckets.(b) + 1
                 end
               with
              | Qs_arena.Arena.Exhausted ->
                if !failed_at = None then failed_at := Some t
              | Qs_intf.Runtime_intf.Neutralized -> ());
              Scheduler.set_neutralizable sched ~pid false);
            loop ()
          end
        in
        loop ())
  done;
  Scheduler.run_all sched;
  let ops_total = Array.fold_left ( + ) 0 per_worker_ops in
  let violations = D.violations state in
  let teardown () : result =
    let throughput =
      float_of_int ops_total /. float_of_int setup.duration *. 1e6
    in
    let series =
      if setup.sample_every = 0 then [||]
      else
        Array.map
          (fun c -> float_of_int c /. float_of_int setup.sample_every *. 1e6)
          buckets
    in
    let contents = Scheduler.exec sched ~pid:0 (fun () -> D.to_list ctxs.(0)) in
    (* capture statistics before the teardown flush below frees everything *)
    let report = D.report state in
    let leak_check =
      if setup.scheme = Qs_smr.Scheme.None_ then `Skipped
      else begin
        Scheduler.exec sched ~pid:0 (fun () -> Array.iter D.flush ctxs);
        let live = Scheduler.exec sched ~pid:0 (fun () -> D.live_nodes ctxs.(0)) in
        let leaked = D.outstanding state - live in
        if leaked = 0 then `Ok else `Leaked leaked
      end
    in
    { ops_total;
      per_worker_ops;
      per_kind_ops;
      throughput;
      series;
      failed_at = !failed_at;
      violations;
      report;
      final_size = List.length contents;
      contents;
      churn_events = Array.fold_left ( + ) 0 churn_counts;
      leak_check }
  in
  { steps = Scheduler.steps sched;
    failures = Scheduler.failures sched;
    failed_at = !failed_at;
    ops_total;
    violations;
    report = D.report state;
    teardown }

let run (setup : setup) : result =
  let m = measure setup in
  (match m.failures with
  | [] -> ()
  | (pid, e) :: _ ->
    failwith
      (Printf.sprintf "sim worker %d died: %s" pid (Printexc.to_string e)));
  m.teardown ()
