(** Experiment runner over the deterministic simulator.

    One experiment = N worker processes (one per virtual core) driving a
    {!Target} — a freshly filled set under an operation mix, or the KV
    service replaying a request trace — for a span of virtual time, with
    optional delay injection (the paper's §7.2 setup: a victim process
    sleeping through given windows) and an optional arena capacity whose
    exhaustion models running out of memory.

    Everything is deterministic given [seed]. Throughput is reported in
    operations per million virtual ticks — the analogue of the paper's
    Mops/s.

    This is the one simulator worker loop: the figures, the bench rows,
    the tests and the schedule explorer ({!Explorer.run_one}) all run
    through it. A run has two phases: {!measure} fills, runs the workers
    and reads the counters as they stand when the last worker stops;
    its [teardown] then reads the final contents, flushes every process
    and checks for leaks. {!run} composes the two. *)

open Qs_sim

type delays = {
  victim : int;
  windows : (int * int) list;  (** [start, stop) in virtual time *)
}

type churn = {
  every_ops : int;  (** leave after this many completed operations *)
  downtime : int;  (** virtual ticks spent out of the computation *)
}

type setup = {
  target : Target.t;
  scheme : Qs_smr.Scheme.kind;
  n_processes : int;
  duration : int;  (** virtual ticks of measured time (after the fill) *)
  ops_limit : int option;
      (** stop each worker after this many completed operations (with a
          [duration] comfortably past the end): every scheme then executes
          the identical logical trace of a pre-generated target, so final
          contents are comparable — the differential-test mode. [None] =
          duration-bounded. *)
  seed : int;
  capacity : int option;  (** arena cap; exceeded => the run "fails" *)
  delays : delays option;
  churn : churn option;
      (** worker churn: every [every_ops] operations each worker with
          pid > 0 unregisters (donating its limbo lists to the scheme's
          orphan pool), sits out [downtime] ticks and re-registers under the
          same pid — staggered by pid so workers do not all vacate at once.
          Pid 0 never churns, keeping the fill/teardown context alive. *)
  sample_every : int;  (** bucket width of the throughput series; 0 = none *)
  latency : Qs_obs.Latency.recorder option;
      (** per-{pid × op-kind} online histograms + top-K outlier buffers
          (sized with {!Target.n_kinds}). A latency runs from the op's
          start — its scheduled arrival, for an open-loop target — to
          completion. End timestamps come from meta-level clock reads
          ([Scheduler.clock_of]) rather than a [now] effect, so seeded
          schedules are byte-identical with the recorder on or off, and
          outlier windows share the trace's time base (both start at the
          post-fill clock reset) for {!Qs_obs.Metrics.attribute_spikes}. *)
  faults : Scheduler.fault list;
      (** scheduler fault injection (e.g. [Stall_at]), installed after the
          fill and re-armed by the clock reset: fault times are measured
          time. A fired [Churn_at] makes its worker leave and rejoin as
          [churn] does, once, between operations. [[]] = none. *)
  sink : Qs_intf.Runtime_intf.sink option;
      (** trace sink (e.g. [Qs_obs.Tracer.sink]); installed after the fill
          so the trace covers measured time only. [None] = tracing off —
          the default, and guaranteed not to change seeded schedules
          either way (see DESIGN.md §9). *)
  history : Qs_verify.History.t option;
      (** records each operation of a [Set] target — pid, op, key,
          invocation stamp, then response stamp and result — for
          {!Qs_verify.Lin_check}; an operation that never responds
          (crashed, neutralized and retried, or cut off by exhaustion)
          stays pending. Both stamps are [Scheduler.steps], a meta-level
          read like the latency recorder's, so a run records a history
          without moving its schedule; [None] records nothing. *)
  smr_tweak : Qs_smr.Smr_intf.config -> Qs_smr.Smr_intf.config;
  sched_tweak : Scheduler.config -> Scheduler.config;
}

val target_setup :
  target:Target.t -> scheme:Qs_smr.Scheme.kind -> n_processes:int -> setup
(** 300k ticks, seed 1, no op limit, no cap, no delays, no churn, no
    sampling; roosters are configured automatically for schemes that need
    them. *)

val default_setup :
  ds:Cset.kind ->
  scheme:Qs_smr.Scheme.kind ->
  n_processes:int ->
  workload:Qs_workload.Spec.t ->
  setup
(** {!target_setup} on [Target.Set { ds; workload }]. *)

type result = {
  ops_total : int;
  per_worker_ops : int array;
  per_kind_ops : int array;  (** completed ops per op-kind index *)
  throughput : float;  (** ops per million virtual ticks *)
  series : float array;  (** ops/Mtick per sample bucket (if sampling) *)
  failed_at : int option;  (** virtual time of memory exhaustion, if any *)
  violations : int;  (** use-after-free oracle hits — 0 for sound schemes *)
  report : Qs_ds.Set_intf.report;  (** captured before the teardown flush *)
  final_size : int;
  contents : int list;  (** final authoritative contents, sorted *)
  churn_events : int;
      (** completed leave/rejoin cycles across all workers, from [churn]
          and from [Churn_at] faults *)
  leak_check : [ `Ok | `Leaked of int | `Skipped ];
      (** after teardown flush: outstanding nodes vs the target's live
          nodes *)
}

(** The worker phase as it stands when {!Scheduler.run_all} returns,
    before any teardown traversal. *)
type measured = {
  steps : int;  (** scheduler steps of the fill and the workers *)
  failures : (int * exn) list;  (** workers that died, by pid *)
  failed_at : int option;
  ops_total : int;
  violations : int;
  report : Qs_ds.Set_intf.report;
  teardown : unit -> result;
      (** read contents, flush, check for leaks (as pid 0, outside the
          measured schedule); call at most once *)
}

val default_rooster_interval : int
val default_epsilon : int

val base_smr_config : n_processes:int -> Qs_smr.Smr_intf.config
(** The SMR defaults every experiment starts from (before [smr_tweak]). *)

val cset_of : Cset.kind -> (module Cset.S)
(** The simulator instantiation of each structure. *)

val measure : setup -> measured
(** Fill to half the key range from process 0 (shuffled), reset the virtual
    clocks, run all workers to [duration] (or [ops_limit]). Worker deaths
    are returned, not raised. *)

val run : setup -> result
(** {!measure}, then its [teardown]. Raises [Failure] if a worker dies of
    anything other than the modelled memory exhaustion. *)
