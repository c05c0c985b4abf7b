(** Experiment runner over real OCaml 5 domains ({!Qs_real.Real_runtime}).

    The shape mirrors {!Sim_exp}: N worker domains drive one {!Target} — a
    set under an operation mix, or the KV service replaying its request
    streams cyclically (closed loop: arrival times are a simulator
    concern) — for a wall-clock duration, with an optional stalled
    victim. On a machine with enough cores this reproduces the
    paper's curves natively; on fewer cores domains timeshare, so use the
    simulator for scalability shapes and this runner for real-fence
    smoke tests and demos. Rooster domains are started automatically for
    schemes that need them. *)

type churn = { generations : int; downtime_ms : int }

type setup = {
  target : Target.t;
  scheme : Qs_smr.Scheme.kind;
  n_domains : int;
  duration_ms : int;
  seed : int;
  capacity : int option;
  stall_victim_after_ms : int option;
      (** victim = highest pid; it stops working (but never quiesces) after
          this instant and resumes 2x later *)
  churn : churn option;
      (** worker churn: each pid slot runs [generations] successive worker
          domains over the duration, each generation unregistering its SMR
          slot on exit (donating limbo lists to the orphan pool) and the
          next one re-registering under the same pid after [downtime_ms] *)
  latency : Qs_obs.Latency.recorder option;
      (** per-{pid × op-kind} histograms + outliers, timed with the
          allocation-free coarse clock ({!Qs_real.Real_runtime.now_coarse},
          one atomic load per read) — quantized to the rooster interval,
          so real-runtime percentiles are coarse; the simulator supplies
          exact ones. Forces rooster domains on (they feed the clock). *)
  sink : Qs_intf.Runtime_intf.sink option;
      (** trace sink (e.g. [Qs_obs.Tracer.sink]), installed for the worker
          phase (after the fill) and removed before return *)
  smr_tweak : Qs_smr.Smr_intf.config -> Qs_smr.Smr_intf.config;
}

let target_setup ~target ~scheme ~n_domains =
  { target;
    scheme;
    n_domains;
    duration_ms = 200;
    seed = 1;
    capacity = None;
    stall_victim_after_ms = None;
    churn = None;
    latency = None;
    sink = None;
    smr_tweak = Fun.id }

let default_setup ~ds ~scheme ~n_domains ~workload =
  target_setup
    ~target:(Target.Set { ds; workload })
    ~scheme ~n_domains

type result = {
  ops_total : int;
  per_kind_ops : int array;
  throughput_mops : float;
  violations : int;
  failed : bool;  (** some domain hit [Arena.Exhausted] *)
  churn_events : int;  (** completed leave/rejoin cycles across all slots *)
  report : Qs_ds.Set_intf.report;
}

let rooster_interval_ns = 2_000_000 (* 2 ms *)

module T = Target.Make (Qs_real.Real_runtime)

let cset_of = T.cset_of

let run (setup : setup) : result =
  let module D = (val T.driver setup.target) in
  let n = setup.n_domains in
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme:setup.scheme in
  let cfg =
    { base with
      capacity = setup.capacity;
      smr =
        setup.smr_tweak
          { base.smr with
            rooster_interval = rooster_interval_ns;
            epsilon = rooster_interval_ns / 2 } }
  in
  let state = D.create cfg in
  let ctxs = Array.init n (fun pid -> D.register state ~pid) in
  Qs_real.Real_runtime.register_self 0;
  let keys = Array.of_list D.initial_keys in
  Qs_util.Prng.shuffle (Qs_util.Prng.create ~seed:setup.seed) keys;
  Array.iter (D.fill ctxs.(0)) keys;
  (* Install the trace sink only for the worker phase: the fill above is
     setup, not measured behaviour. *)
  Qs_real.Real_runtime.set_sink setup.sink;
  let roosters =
    (* Latency recording reads the coarse clock, which only roosters
       refresh — so a recorder forces them on even for schemes that do
       not otherwise need them. *)
    if Qs_smr.Scheme.needs_roosters setup.scheme || setup.latency <> None then
      Some (Qs_real.Roosters.start ~interval_ns:rooster_interval_ns ~n:1)
    else None
  in
  let stop = Atomic.make false in
  let failed = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. (float_of_int setup.duration_ms /. 1000.) in
  let master = Qs_util.Prng.create ~seed:(setup.seed + 31) in
  let prngs = Array.init n (fun _ -> Qs_util.Prng.split master) in
  let n_kinds = Target.n_kinds setup.target in
  let kind_counts = Array.init n (fun _ -> Array.make n_kinds 0) in
  (* [Unix.gettimeofday] is a syscall-priced clock read; at the
     millions-of-ops/s this loop targets, reading it per operation
     dominates the thing being measured. Check the deadline (and the
     stall window, and the stop flag) once every 64 operations:
     worst-case overshoot is 64 ops (~tens of microseconds) against a
     duration measured in hundreds of milliseconds, and the final
     throughput divides by the measured elapsed time anyway. *)
  let worker_loop ~pid ~ctx ~until_ =
    let prng = prngs.(pid) in
    let kinds = kind_counts.(pid) in
    let stall_at =
      match setup.stall_victim_after_ms with
      | Some ms when pid = n - 1 ->
        Some (t0 +. (float_of_int ms /. 1000.), t0 +. (2. *. float_of_int ms /. 1000.))
      | _ -> None
    in
    let count = ref 0 in
    let running = ref true in
    (try
       while !running do
         if !count land 63 = 0 then begin
           if Atomic.get stop || Unix.gettimeofday () >= until_ then
             running := false
           else
             match stall_at with
             | Some (a, b) ->
               let now = Unix.gettimeofday () in
               if now >= a && now < b then Unix.sleepf (b -. now)
             | None -> ()
         end;
         if !running then begin
           (* DEBRA+ restarts are cooperative on real domains: the victim
              raises [Neutralized] out of its own protection checks. The
              aborted operation is simply retried (and not counted) — an
              installed OCaml exception handler is push-one-trap-frame
              cheap, so this does not tax the measured loop. *)
           (try
              let ls =
                (* coarse clock: one atomic load, no boxed float — the
                   recording path must stay at 0 minor words per op *)
                match setup.latency with
                | Some _ -> Qs_real.Real_runtime.now_coarse ()
                | None -> 0
              in
              let kind = D.step ctx prng ~pid ~i:!count in
              (match setup.latency with
              | Some r ->
                Qs_obs.Latency.observe r ~pid ~kind ~start:ls
                  ~dur:(Qs_real.Real_runtime.now_coarse () - ls)
              | None -> ());
              kinds.(kind) <- kinds.(kind) + 1;
              incr count
            with Qs_intf.Runtime_intf.Neutralized -> ())
         end
       done
     with Qs_arena.Arena.Exhausted ->
       Atomic.set failed true;
       Atomic.set stop true);
    !count
  in
  let churn_events = ref 0 in
  let ops =
    match setup.churn with
    | None | Some { generations = 1; _ } ->
      Qs_real.Domain_pool.run ~n (fun pid ->
          worker_loop ~pid ~ctx:ctxs.(pid) ~until_:deadline)
    | Some { generations; downtime_ms } ->
      let generations = max 2 generations in
      let slice_s =
        float_of_int setup.duration_ms /. 1000. /. float_of_int generations
      in
      let per_slot =
        Qs_real.Domain_pool.run_generations ~n ~generations
          ~downtime_s:(float_of_int downtime_ms /. 1000.)
          (fun ~pid ~gen ->
            (* gen 0 inherits the pre-registered context (it also performed
               the fill for pid 0); later generations join fresh, under the
               same pid slot. *)
            let ctx =
              if gen = 0 then ctxs.(pid) else D.register state ~pid
            in
            let until_ =
              Float.min deadline (t0 +. (slice_s *. float_of_int (gen + 1)))
            in
            let count = worker_loop ~pid ~ctx ~until_ in
            (* leave: donate limbo lists to the orphan pool so survivors
               (and successor generations) reclaim them *)
            if gen < generations - 1 then D.unregister ctx
            else ctxs.(pid) <- ctx;
            count)
      in
      Array.iter
        (fun counts -> churn_events := !churn_events + max 0 (List.length counts - 1))
        per_slot;
      Array.map (fun counts -> List.fold_left ( + ) 0 counts) per_slot
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match roosters with Some r -> Qs_real.Roosters.stop r | None -> ());
  (* The sink is a global on the real runtime: remove it so later runs in
     the same process do not keep feeding this experiment's tracer. *)
  Qs_real.Real_runtime.set_sink None;
  let report = D.report state in
  let ops_total = Array.fold_left ( + ) 0 ops in
  let per_kind_ops = Array.make n_kinds 0 in
  Array.iter
    (Array.iteri (fun k c -> per_kind_ops.(k) <- per_kind_ops.(k) + c))
    kind_counts;
  { ops_total;
    per_kind_ops;
    throughput_mops = float_of_int ops_total /. elapsed /. 1e6;
    violations = D.violations state;
    failed = Atomic.get failed;
    churn_events = !churn_events;
    report }
