(** Deterministic multicore simulator.

    The simulator models [n_cores] cores, each running exactly one pinned
    worker process (as in the paper's evaluation, where every process is
    pinned to a distinct core), plus one rooster per core modelled as a
    timer event. Workers are OCaml effect-handler coroutines: every shared
    memory access performs an effect, which is a preemption point.

    {b Time.} Each core has its own virtual clock, advanced by the cost of
    the operations {e that core} executes (see {!cost_model}). The scheduler
    always steps the runnable core with the smallest clock, so cores proceed
    in parallel virtual time: [n] cores each executing [k] ticks of work
    finish at virtual time [k], not [n*k]. Throughput numbers are
    operations per virtual time unit.

    {b TSO.} Plain writes go to a per-process store buffer (capacity
    {!config.store_buffer_capacity}); they commit to memory on a fence, on a
    rooster-induced context switch, on capacity overflow, or on any atomic
    operation by the same process (x86 [lock] semantics) — never
    spontaneously, which is the adversarial case the SMR schemes must
    survive.

    {b Roosters.} With [rooster_interval = Some t], each core flushes its
    worker's store buffer every [t] ticks (plus a bounded random oversleep),
    charging the worker a context-switch cost. This is the mechanism
    Cadence's safety relies on.

    {b Skew.} [now] reads a process's core clock; cross-core skew is the
    {!Skew_burst} fault (a constant skew is one burst from [0] to
    [max_int]).

    {b Determinism.} Everything — interleaving, the per-step jitter coin
    and stall roll, rooster oversleep — derives from [seed]. *)

type cost_model = {
  plain_op : int;      (** plain read/write, clock read *)
  atomic_load : int;   (** atomic load — a pointer-chasing node access *)
  atomic_store : int;  (** SC store *)
  cas : int;           (** compare-and-set / fetch-and-add *)
  fence : int;         (** full barrier — the cost hazard pointers pay *)
  remote_access : int; (** added when touching a line owned by another core *)
  ctx_switch : int;    (** charged to the worker at each rooster wake-up *)
  stall_prob : float;
      (** probability, per operation, of a long stall — modelling cache
          misses, interrupts and preemptions, the asynchrony that lets one
          process race far ahead of another. Every operation also pays a
          jitter coin of 0 or 1 tick; one PRNG draw per step serves both
          the coin and the stall roll. *)
  stall_max : int;     (** stall length is uniform in [0, stall_max] *)
}

val default_cost : cost_model
(** plain 1, atomic load 8 (pointer chase), atomic store 3, cas 12,
    fence 60, remote 8, ctx switch 200, stall 0.002/400 —
    ratios in line with published x86 measurements. *)

(** Scheduling strategies (see "Schedule exploration" in EXPERIMENTS.md).

    - [Fair] — the historical smallest-clock policy: cores advance together
      in virtual time, modelling true parallelism. This is the default and
      is what every throughput experiment uses.
    - [Pct {depth; seed}] — probabilistic concurrency testing (Burckhardt
      et al., ASPLOS 2010). Each process gets a random priority; the
      highest-priority runnable process runs; at [depth - 1] step counts
      drawn uniformly from [\[0, pct_horizon)] the running process is
      demoted below every priority handed out so far. Any bug of ordering
      depth [d <= depth] is found with probability at least
      [1/(n * horizon^(d-1))] per seed — far better than uniform random
      interleaving for rare orderings such as "scan completes entirely
      inside the window where a hazard-pointer publication is still
      buffered". The PCT randomness is governed by the strategy's own
      [seed], independent of {!config.seed}, so the same memory-timing seed
      can be explored under many schedules. Because PCT serializes
      execution, each deschedule of a process is treated as a context
      switch and drains its store buffer (real hardware cannot keep a
      descheduled thread's stores hidden).
    - [Targeted] — keep [Fair] scheduling, but the [(skip+1)]-th time
      process [victim] performs labelled hook [hook]
      ({!Qs_intf.Runtime_intf.hook}: retire / scan / quiesce boundary) it
      stalls in place for [stall] ticks without draining its store buffer.
      This is the precision tool: "freeze this process right as it begins a
      scan". *)
type strategy =
  | Fair
  | Pct of { depth : int; seed : int }
  | Targeted of {
      victim : int;
      hook : Qs_intf.Runtime_intf.hook;
      skip : int;
      stall : int;
    }

(** Injected faults. Each fires once, when the target process's core clock
    first reaches [at] (relative to the most recent {!reset_clocks}; faults
    re-arm on reset). All are deterministic given the fault list.

    - [Stall_at] — the process freezes for [ticks] {e without} draining its
      store buffer (an in-core stall: cache-miss storm, SMI). Rooster
      wake-ups crossed during the stall still fire.
    - [Crash_at] — the process never runs again. Its final descheduling is
      a context switch, so its store buffer drains; its core (and rooster)
      stay up. A crashed operation stays pending in a recorded history:
      it may or may not have taken effect.
    - [Oversleep_spike] — the process's next rooster wake-up is delayed by
      [extra] ticks on top of the configured oversleep, possibly far beyond
      the [epsilon] the SMR schemes assume.
    - [Skew_burst] — the process's [now] reads [extra] ticks ahead during
      [\[at, until_)] : a cross-core clock-skew burst.
    - [Churn_at] — worker churn request: the process should leave the
      computation (unregister, donating its limbo lists to the scheme's
      orphan pool), stay away for [ticks] virtual time, then re-register.
      The scheduler only {e queues} the request; the worker body polls
      {!take_churn} between operations and performs the leave/rejoin
      itself (registration belongs to the SMR scheme, not the core).
    - [Neutralize_at] — a DEBRA+-style neutralization signal lands on the
      process: its in-flight operation is discontinued with
      {!Qs_intf.Runtime_intf.Neutralized} at its next dispatch {e inside an
      interruptible region} (see {!set_neutralizable}; a masked signal
      stays pending, like a blocked POSIX signal). The suspended memory
      access never executes — which is what makes restarting safe after the
      scheme has reclaimed past the victim — and the store buffer does not
      drain (an async signal is not a context switch). *)
type fault =
  | Stall_at of { pid : int; at : int; ticks : int }
  | Crash_at of { pid : int; at : int }
  | Oversleep_spike of { pid : int; at : int; extra : int }
  | Skew_burst of { pid : int; at : int; until_ : int; extra : int }
  | Churn_at of { pid : int; at : int; ticks : int }
  | Neutralize_at of { pid : int; at : int }

(** A run's fixed parameters. Tracing is not one of them: events reach the
    sink installed with {!set_sink}, which cannot perturb the schedule. *)
type config = {
  n_cores : int;
  seed : int;
  cost : cost_model;
  store_buffer_capacity : int;  (** oldest store commits when full (hw ~64) *)
  rooster_interval : int option;  (** [None]: no roosters *)
  rooster_oversleep : int;
      (** max extra sleep per rooster wake-up: each wake-up's oversleep is
          uniform in [\[0, rooster_oversleep\]], and [0] draws nothing.
          {b Default bound:} experiments configure this at most [epsilon/2]
          (see [Qs_harness.Sim_exp]), keeping total rooster slack within the
          [epsilon] that Cadence's age check [now - ts >= T + epsilon]
          budgets for; oversleep beyond [epsilon] voids the safety argument
          (negative tests set this above the SMR config's [epsilon], or
          inject an {!Oversleep_spike}). *)
  strategy : strategy;  (** scheduling policy; default [Fair] *)
  pct_horizon : int;
      (** PCT change points are drawn from [\[0, pct_horizon)] steps;
          should be ≥ the expected step count of the run (default 200_000) *)
}

val default_config : n_cores:int -> seed:int -> config

type t

val create : config -> t

(** {1 Effects performed by {!Sim_runtime}} *)

type _ Effect.t +=
  | E_atomic_get : 'a Cell.t -> 'a Effect.t
  | E_atomic_set : 'a Cell.t * 'a -> unit Effect.t
  | E_cas : 'a Cell.t * 'a * 'a -> bool Effect.t
  | E_faa : int Cell.t * int -> int Effect.t
  | E_read : Cell.plain -> int Effect.t
  | E_write : Cell.plain * int -> unit Effect.t
  | E_fence : unit Effect.t
  | E_now : int Effect.t
  | E_self : int Effect.t
  | E_yield : unit Effect.t
  | E_sleep_until : int -> unit Effect.t
  | E_charge : int -> unit Effect.t
  | E_hook : Qs_intf.Runtime_intf.hook -> unit Effect.t
  | E_emit : Qs_intf.Runtime_intf.event * int * int -> unit Effect.t
  | E_neutralize : int -> unit Effect.t
  | E_set_neutralizable : bool -> bool Effect.t

(** {1 Trace sink} *)

val set_sink : t -> Qs_intf.Runtime_intf.sink option -> unit
(** Install (or remove) the trace sink that receives
    {!Qs_intf.Runtime_intf.RUNTIME.emit} events and rooster wake-ups. It is
    the simulator's one event stream: the scheduler keeps no trace of its
    own, and a test that wants per-operation events emits them itself.
    Events are stamped with the emitting process's raw core clock (no
    skew), so timelines are comparable across processes. Like hooks,
    emission is handled synchronously — no virtual time, no PRNG draw, no
    preemption — so installing a sink cannot perturb a seeded schedule. *)

val inject : t -> fault list -> unit
(** Arm a fault plan. Faults fire during subsequent {!run_all} (or {!exec})
    steps, each when its process's clock first reaches its [at];
    {!reset_clocks} re-arms the full list against the new time base, so the
    usual order is [inject; fill; reset_clocks; run_all]. Replaces any
    previously armed plan. *)

(** {1 Running processes} *)

(** {2 Operation entry points}

    What {!Sim_runtime} calls. Each is semantically [Effect.perform] of the
    corresponding effect — and that is exactly what it does whenever any
    other process could legally run next. But when the calling process's
    clock is strictly below every other active clock (so the fair pick is
    deterministic and draw-free), the operation executes inline, skipping
    the fiber suspension; outcomes are bit-identical either way. *)

val op_read : Cell.plain -> int
val op_write : Cell.plain -> int -> unit
val op_get : 'a Cell.t -> 'a
val op_set : 'a Cell.t -> 'a -> unit
val op_cas : 'a Cell.t -> 'a -> 'a -> bool
val op_faa : int Cell.t -> int -> int
val op_fence : unit -> unit
val op_now : unit -> int
val op_self : unit -> int
val op_charge : int -> unit
val op_yield : unit -> unit

val op_hook : Qs_intf.Runtime_intf.hook -> unit
(** Hooks and emissions are not preemption points, so these two run inline
    under any strategy whenever a dispatch is live. *)

val op_emit : Qs_intf.Runtime_intf.event -> int -> int -> unit

val op_neutralize : int -> unit
(** Post a neutralization signal to the given pid (DEBRA+'s
    [pthread_kill] analogue — what {!Qs_intf.Runtime_intf.RUNTIME.neutralize}
    performs on the simulator). Posting is synchronous and schedule-neutral
    (no virtual time, no PRNG draw, not a preemption point for the caller);
    delivery to the target happens at its next dispatch inside an
    interruptible region. Posting to a finished/crashed/unspawned process
    is a no-op. *)

val op_set_neutralizable : bool -> bool
(** {!set_neutralizable} for the calling process, returning the previous
    setting (what {!Qs_intf.Runtime_intf.RUNTIME.set_neutralizable}
    performs on the simulator). Meta-level: no virtual time, no PRNG draw,
    not a preemption point. *)

val exec : t -> pid:int -> (unit -> 'a) -> 'a
(** [exec t ~pid f] runs [f] as process [pid]'s fiber to completion, alone,
    advancing that core's clock. Used for initialisation (the paper fills
    the structure from a single process) and for sequential tests.
    Re-raises any exception of [f]. *)

val spawn : t -> pid:int -> (unit -> unit) -> unit
(** Register the body of process [pid] for the next {!run_all}. [pid] must
    be in [0, n_cores). *)

val run_all : t -> unit
(** Run all spawned processes to completion under the configured
    {!strategy}, for any number of cores. Worker exceptions are recorded,
    not re-raised — see {!failures}. *)

val reset_clocks : t -> unit
(** Zero every core clock and restart rooster schedules; used after a
    single-process initialisation phase so that measured time starts with
    the workers. Buffers are drained first. *)

val failures : t -> (int * exn) list
(** Processes that died with an exception during the last {!run_all}. *)

val clock_of : t -> pid:int -> int
(** Core-local virtual clock (without skew). *)

val max_clock : t -> int

val flush_count : t -> pid:int -> int
(** Number of store-buffer drains performed by/for this process. *)

val rooster_fires : t -> int
(** Total rooster wake-ups fired so far. *)

val steps : t -> int
(** Total effect-steps executed, across all processes. *)

val crashes : t -> int
(** Number of {!Crash_at} faults that have fired. *)

val crashed : t -> pid:int -> bool
(** Has this process been killed by a {!Crash_at} fault? *)

val take_churn : t -> pid:int -> int option
(** Pop the oldest fired-but-unconsumed {!Churn_at} request for this
    process ([Some downtime_ticks]), or [None]. Plain meta-level state:
    polling performs no effect and costs no virtual time, so worker loops
    may poll every operation without perturbing seeded schedules. *)

val set_neutralizable : t -> pid:int -> bool -> unit
(** Opt the process in to (or mask it from) neutralization-signal delivery.
    Worker bodies bracket each data-structure operation with
    [set_neutralizable t ~pid true ... false]; a signal landing while
    masked stays pending and is delivered at the first dispatch after the
    next opt-in. Plain meta-level state, like {!take_churn}: toggling
    performs no effect and costs no virtual time, so churn-free and
    neutralization-free runs execute bit-identically to older schedules. *)

val hook_count : t -> pid:int -> Qs_intf.Runtime_intf.hook -> int
(** How many times this process has performed the given labelled hook since
    the last {!reset_clocks} (or since creation). *)
