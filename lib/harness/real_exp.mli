(** Experiment runner over real OCaml 5 domains — the {!Sim_exp} shape on
    {!Qs_real.Real_runtime}, driving the same {!Target}s. The KV service
    replays its request streams cyclically, closed loop: on real domains
    the point is throughput, and the simulator owns exact open-loop
    latency. On a machine with enough cores this reproduces
    the paper's curves natively; on fewer cores domains timeshare, so use
    the simulator for scalability shapes and this runner for real-fence
    smoke tests and demos. Roosters are started automatically for schemes
    that need them. *)

type churn = {
  generations : int;  (** worker generations per pid slot; 1 = no churn *)
  downtime_ms : int;  (** slot left empty between generations *)
}

type setup = {
  target : Target.t;
  scheme : Qs_smr.Scheme.kind;
  n_domains : int;
  duration_ms : int;
  seed : int;
  capacity : int option;
  stall_victim_after_ms : int option;
      (** the highest-pid domain stops working (without quiescing) at this
          instant and resumes at twice it *)
  churn : churn option;
      (** worker churn via {!Qs_real.Domain_pool.run_generations}: each pid
          slot runs [generations] successive worker domains over the
          duration; every generation but the last unregisters its SMR slot
          on exit (limbo lists donated to the orphan pool), and the next
          generation re-registers under the same pid after [downtime_ms] *)
  latency : Qs_obs.Latency.recorder option;
      (** per-{pid × op-kind} latency histograms + top-K outliers, timed
          with the allocation-free coarse clock
          ({!Qs_real.Real_runtime.now_coarse}: one atomic load) so the
          recording path stays at 0 minor words per op. Durations are
          quantized to the rooster interval — use the simulator for exact
          percentiles; this measures recording overhead and catches
          rooster-interval-scale stalls. Forces roosters on (they feed
          the coarse clock). *)
  sink : Qs_intf.Runtime_intf.sink option;
      (** trace sink (e.g. [Qs_obs.Tracer.sink]) installed for the worker
          phase and removed before return; [None] = tracing off. Event
          timestamps are coarse-clock nanoseconds. *)
  smr_tweak : Qs_smr.Smr_intf.config -> Qs_smr.Smr_intf.config;
}

val target_setup :
  target:Target.t -> scheme:Qs_smr.Scheme.kind -> n_domains:int -> setup
(** 200 ms, seed 1, no cap, no stall, no churn. *)

val default_setup :
  ds:Cset.kind ->
  scheme:Qs_smr.Scheme.kind ->
  n_domains:int ->
  workload:Qs_workload.Spec.t ->
  setup
(** {!target_setup} on [Target.Set { ds; workload }]. *)

type result = {
  ops_total : int;
  per_kind_ops : int array;  (** completed ops per op-kind index *)
  throughput_mops : float;
  violations : int;
  failed : bool;  (** some domain hit the arena capacity *)
  churn_events : int;
      (** completed leave/rejoin cycles across all slots (0 without churn) *)
  report : Qs_ds.Set_intf.report;
}

val cset_of : Cset.kind -> (module Cset.S)
(** The real-runtime instantiation of each structure. *)

val run : setup -> result
