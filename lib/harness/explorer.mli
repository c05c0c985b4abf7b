(** Adversarial schedule exploration, fault injection and counterexample
    shrinking over the simulator (see EXPERIMENTS.md, "Schedule
    exploration").

    A {!case} fully determines one run — structure, scheme, workload shape,
    scheduling {!strategy}, fault plan and seed — and {!run_one} executes it
    under four oracles, on every case whatever its strategy or faults:

    - the arena's node-state oracle: use-after-free and double-free
      counters;
    - memory exhaustion against the case's arena capacity;
    - per-key linearizability ({!Qs_verify.Lin_check}) of the recorded
      operation history, whatever its length, stamped with the scheduler's
      step index. An operation a crash or a neutralization cut short is
      pending: it may or may not have taken effect;
    - on a run the others pass, the teardown's leak check: after every
      process flushes, the arena holds no node beyond the live ones (a
      crashed operation may strand one key's nodes, so each [Crash_at]
      fault allows {!Cset.nodes_per_key_of} more).

    A case runs as one {!Sim_exp.measure} at the explorer's operating
    point (eager quiescence and scans, the {!stall_cost} model, the case's
    strategy and faults), with {!Sim_exp} recording the history.

    Cases serialize to one-line ["k=v"] strings ({!to_string} /
    {!of_string}); a failing case can be {!shrink}'d and written to a repro
    file that replays by itself, and a committed corpus of known-clean cases
    is replayed as a regression test. *)

open Qs_sim

(** Explorer-level strategy; mapped onto {!Scheduler.strategy} with
    PCT/stall seeds derived from the case seed. *)
type strategy =
  | Fair
  | Pct of { depth : int }
  | Targeted of {
      victim : int;
      hook : Qs_intf.Runtime_intf.hook;
      skip : int;
      stall : int;
    }

type case = {
  ds : Cset.kind;
  scheme : Qs_smr.Scheme.kind;
  n_processes : int;
  key_range : int;
  update_pct : int;
  ops_per_proc : int;  (** per-process operation budget *)
  duration : int;  (** virtual-time budget; whichever bound hits first *)
  capacity : int;  (** arena capacity; 0 = unbounded *)
  switch : int;  (** QSense C; 0 = smallest legal (Property 4) *)
  evict : int;
      (** QSense §5.2 eviction timeout dt; 0 = eviction off. *)
  bags : int;
      (** {!Qs_util.Bag} block capacity of every limbo list. Values below 1
          run as 1 (the block source clamps), so old [bags=0] lines, which
          once selected an element-wise reference, replay on capacity-1
          bags. *)
  strategy : strategy;
  faults : Scheduler.fault list;
  seed : int;
}

val default_case : ds:Cset.kind -> scheme:Qs_smr.Scheme.kind -> seed:int -> case
(** 4 processes, 32 keys, 50% updates, 150 ops/process, 400k ticks,
    unbounded arena, C = 48, eviction off, bags of 64, [Fair], no
    faults. *)

type verdict =
  | Pass
  | Uaf of int  (** use-after-free oracle violations *)
  | Double_free of int
  | Oom of int  (** virtual time of arena exhaustion *)
  | Not_linearizable of int  (** offending key *)
  | Worker_exn of string
  | Leaked of int  (** nodes neither live nor freed after the teardown *)

type outcome = {
  verdict : verdict;
  ops : int;
  steps : int;
  stats : Qs_smr.Smr_intf.stats;
}

val same_class : verdict -> verdict -> bool
val verdict_to_string : verdict -> string

(** {1 Fault plans} *)

type fault_level =
  | No_faults
  | Stalls  (** three random mid-run process stalls *)
  | Victim_stall
      (** the paper's robustness scenario: the last process freezes early
          and for the rest of the run *)
  | Chaos  (** stalls + oversleep spike + skew burst + one crash *)
  | Churn
      (** dynamic membership: two processes leave and rejoin mid-run plus
          one random stall — hunts the adopted-node UAF class. *)
  | Neutralize
      (** two poison deliveries plus one stall — hunts the
          restart-then-double-free and unwind-path-leak classes introduced
          by DEBRA+-style neutralization, and restarted operations that
          apply twice. *)

val fault_level_to_string : fault_level -> string

val plan : fault_level -> n:int -> duration:int -> seed:int -> Scheduler.fault list
(** Deterministically expand a level into an explicit fault list (stored in
    the case, so repro files never need to re-derive it). *)

(** {1 Running and shrinking} *)

val stall_cost : Scheduler.cost_model
(** The scheduler cost model every case runs under: {!Scheduler.default_cost}
    with frequent long stalls (probability 0.05, up to 600 ticks), which
    open the clock gaps that let one process race far ahead of another. *)

val setup_of :
  ?sink:Qs_intf.Runtime_intf.sink ->
  ?history:Qs_verify.History.t ->
  case ->
  Sim_exp.setup
(** The {!Sim_exp} run a case stands for, at the explorer's operating
    point: Q = 8, R = 2, the {!stall_cost} model, the case's strategy,
    faults and seed. *)

val run_one : ?sink:Qs_intf.Runtime_intf.sink -> case -> outcome
(** Deterministic: equal cases give equal outcomes — with or without a
    [sink] (trace emission is schedule-neutral), so a traced replay of a
    repro file reproduces its verdict while producing a full timeline of
    the failure. The sink covers the worker phase only (not the fill, nor
    the leak check's teardown). *)

val shrink : ?budget:int -> case -> verdict -> case * int
(** [shrink case v] greedily minimises [case] (fewer ops, processes, keys,
    faults; simpler strategy) while {!run_one} keeps returning a verdict of
    the same class as [v], spending at most [budget] extra runs (default
    40). Returns the smallest accepted case and the runs spent. *)

val explore : case list -> (case * outcome) list
(** Run every case; return the failing ones (non-[Pass] verdict class). *)

val seeds : base:int -> count:int -> int list

(** {1 Case families}

    The explorer's standing checks. test/test_explorer.ml is the one place
    that judges them; [explore.exe profile] and [grow] build on them, and
    [explore.exe fingerprint] digests their outcomes. *)

val unsafe_hp_case : int -> case
(** Positive control for Algorithm 2's unfenced publish: unsafe-hp on an
    8-key list, 4,000 ops/process. Some seed of [seeds ~base:1 ~count:3]
    ends in a memory-safety verdict. *)

val leaky_case : int -> case
(** Positive control: the leaky baseline on a 256-node arena,
    4,000 ops/process; it runs out of memory. *)

val stall_case : scheme:Qs_smr.Scheme.kind -> seed:int -> case
(** The robustness scenario (§7.2) on a 300-node arena: process 3 stalls
    for 1.5M ticks from tick 100k. QSense completes a fallback round trip
    and passes; QSBR runs out of memory. *)

val sweep_cases : seeds:int -> case list
(** The clean sweep: hp, cadence, qsense, debra-plus and hyaline on the
    list, each at [seeds ~base:11 ~count:seeds] under fair, PCT (depth 3),
    [Stalls], [Chaos] and [Neutralize] schedules — 25 cases per seed, all
    expected to pass. *)

val churn_cases : seeds:int -> case list
(** The seven sound schemes (qsbr, ebr, hp, cadence, qsense, debra-plus,
    hyaline) on the list under the [Churn] plan at
    [seeds ~base:29 ~count:seeds] — 7 cases per seed, all expected to
    pass. *)

(** {1 Repro and corpus files} *)

val to_string : case -> string
val of_string : string -> (case, string) result

val save_repro : string -> case -> outcome -> unit
(** Write a replayable one-case repro file (with the verdict in comments). *)

val load_repro : string -> case
(** First case line of a repro file. Raises [Failure] on a malformed file. *)

val load_corpus : string -> case list
(** All case lines ('#' comments and blank lines ignored). Raises [Failure]
    on a malformed line. *)
