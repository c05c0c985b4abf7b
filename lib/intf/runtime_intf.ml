(** The shared-memory runtime abstraction.

    Every memory-reclamation scheme and every lock-free data structure in
    this repository is a functor over {!module-type:RUNTIME}. Two
    implementations exist:

    - {!Qs_sim.Sim_runtime} — a deterministic multicore simulator with a TSO
      (total-store-order) memory model: {e plain} writes go through a
      per-process store buffer and only become globally visible on a fence, a
      context switch, or buffer-capacity overflow. This runtime reproduces
      the reordering bug of the paper's Algorithm 2 and is the substrate for
      all figure reproductions.
    - {!Qs_real.Real_runtime} — real OCaml 5 domains. Atomics map to
      [Stdlib.Atomic]; atomic arrays and plain rows are flat blocks whose
      elements sit inline; [fence] maps to an atomic exchange (the cost
      analogue of x86 [mfence]).

    The two cell kinds mirror the distinction the paper's performance
    argument rests on:

    - {e atomics} are sequentially consistent locations used for data
      structure links, epochs and flags. CAS and SC stores drain the
      issuer's store buffer (as the x86 [lock] prefix does). An
      {e atomic array} is a row of such locations, e.g. a skip-list
      node's per-level links.
    - {e plain} rows are single-writer multi-reader rows of [int] slots
      used for hazard pointers, which publish node ids. A plain write is
      cheap (no fence, and no GC write barrier) but its visibility to other
      processes is delayed — bounded only by fences, context switches
      (rooster processes!) and buffer capacity. *)

(** Labelled schedule points, performed by the SMR schemes at the
    boundaries an adversarial scheduler wants to interleave around:

    - [Hook_retire] — entry of [retire] (the paper's [free_node_later]);
    - [Hook_scan] — start of a hazard-pointer scan;
    - [Hook_quiesce] — a quiescent-state declaration / epoch adoption.

    On the real runtime {!RUNTIME.hook} is a no-op. On the simulator it is
    a zero-cost annotation that the {!Qs_sim.Scheduler}'s [Targeted]
    strategy can turn into an injected stall ("pause this process right as
    it is about to scan"), the schedule-exploration analogue of a
    breakpoint. It deliberately costs no virtual time and is {e not} a
    preemption point, so enabling hooks does not perturb schedules. *)
type hook = Hook_retire | Hook_scan | Hook_quiesce

(** Trace events, emitted by the SMR schemes at the state transitions the
    paper's claims quantify over. Each event carries two integer payloads
    [a] and [b]; the per-event conventions (unused slots carry [-1]):

    - [Ev_retire] — a node entered a limbo list. [a] = node id, [b] = limbo
      depth of the retiring process after the push.
    - [Ev_free] — a node left limbo and was recycled. [a] = node id, [b] =
      age at free in clock units when the scheme's reclamation test already
      had both timestamps in hand (Cadence's [now - ts]), else [-1] (the
      age is then recovered offline by joining against the node's
      [Ev_retire]).
    - [Ev_scan_begin] — a hazard-pointer scan started. [a] = limbo size
      about to be scanned.
    - [Ev_scan_end] — the scan finished. [a] = nodes freed, [b] = nodes
      kept.
    - [Ev_epoch_advance] — the global epoch moved. [a] = new epoch.
    - [Ev_quiesce] — a quiescent-state declaration. [a] = the global epoch
      observed, [b] = 1 if the process adopted a new epoch (and freed its
      oldest limbo list), 0 if it only re-announced.
    - [Ev_fallback_enter] — QSense switched this process to the fallback
      (hazard-pointer) path. [a] = total nodes in the process's limbo
      lists at the switch.
    - [Ev_fallback_exit] — back on the fast path. [a] = dwell time in
      clock units.
    - [Ev_evict] — a delayed process's epoch was evicted/forced. [a] = pid
      of the evicted process.
    - [Ev_rooster_wake] — a rooster fired: it published a fresh coarse
      timestamp and signalled its companions. Emitted with the rooster's
      own identity (simulator) or pid [-1] (real runtime, where roosters
      are unregistered domains).
    - [Ev_unregister] — a process retired its pid slot and donated its
      limbo lists to the scheme's orphan pool. [a] = pid of the departing
      process, [b] = number of nodes donated.
    - [Ev_adopt] — a survivor adopted an orphaned limbo batch from the
      pool. [a] = number of nodes adopted, [b] = pid of the donor.
    - [Ev_bag_seal] — a limbo bag filled and was sealed (batched
      reclamation only). [a] = number of nodes in the sealed bag.
    - [Ev_bag_free] — a whole bag (or the reclaimable part of one) left
      limbo in one bulk free. [a] = nodes freed from the bag, [b] = the
      bag's age at free in clock units when the reclamation test had the
      seal stamp and the clock in hand (Cadence/QSense scans), else [-1].
      Per-node [Ev_free] events are still emitted alongside, so depth and
      age-at-free metrics stay exact.
    - [Ev_neutralize] — DEBRA+ neutralized a delayed process: the scheme
      posted a restart signal to the victim and force-unpinned its epoch
      so the global epoch can advance past it. [a] = pid of the victim,
      [b] = the epoch the victim was pinned to ([-1] if it was already
      unpinned when the signal landed). *)
type event =
  | Ev_retire
  | Ev_free
  | Ev_scan_begin
  | Ev_scan_end
  | Ev_epoch_advance
  | Ev_quiesce
  | Ev_fallback_enter
  | Ev_fallback_exit
  | Ev_evict
  | Ev_rooster_wake
  | Ev_unregister
  | Ev_adopt
  | Ev_bag_seal
  | Ev_bag_free
  | Ev_neutralize

(** Raised {e inside the victim} when a DEBRA+ neutralization signal lands:
    the victim's current operation is abandoned mid-flight and restarted
    from scratch by the caller (data structures unwind to a clean state on
    the way out; see [lib/ds/*]). On the simulator the scheduler
    discontinues the victim's suspended effect with this exception at its
    next delivery point while the victim has declared itself interruptible
    ([Qs_sim.Scheduler.set_neutralizable]); on the real runtime the victim
    polls its poisoned flag at protect/retire points and raises it
    cooperatively (the portable stand-in for Brown's [sigsetjmp] +
    [SIGQUIT]). *)
exception Neutralized

let event_index = function
  | Ev_retire -> 0
  | Ev_free -> 1
  | Ev_scan_begin -> 2
  | Ev_scan_end -> 3
  | Ev_epoch_advance -> 4
  | Ev_quiesce -> 5
  | Ev_fallback_enter -> 6
  | Ev_fallback_exit -> 7
  | Ev_evict -> 8
  | Ev_rooster_wake -> 9
  | Ev_unregister -> 10
  | Ev_adopt -> 11
  | Ev_bag_seal -> 12
  | Ev_bag_free -> 13
  | Ev_neutralize -> 14

let event_of_index = function
  | 0 -> Some Ev_retire
  | 1 -> Some Ev_free
  | 2 -> Some Ev_scan_begin
  | 3 -> Some Ev_scan_end
  | 4 -> Some Ev_epoch_advance
  | 5 -> Some Ev_quiesce
  | 6 -> Some Ev_fallback_enter
  | 7 -> Some Ev_fallback_exit
  | 8 -> Some Ev_evict
  | 9 -> Some Ev_rooster_wake
  | 10 -> Some Ev_unregister
  | 11 -> Some Ev_adopt
  | 12 -> Some Ev_bag_seal
  | 13 -> Some Ev_bag_free
  | 14 -> Some Ev_neutralize
  | _ -> None

let event_name = function
  | Ev_retire -> "retire"
  | Ev_free -> "free"
  | Ev_scan_begin -> "scan_begin"
  | Ev_scan_end -> "scan_end"
  | Ev_epoch_advance -> "epoch_advance"
  | Ev_quiesce -> "quiesce"
  | Ev_fallback_enter -> "fallback_enter"
  | Ev_fallback_exit -> "fallback_exit"
  | Ev_evict -> "evict"
  | Ev_rooster_wake -> "rooster_wake"
  | Ev_unregister -> "unregister"
  | Ev_adopt -> "adopt"
  | Ev_bag_seal -> "bag_seal"
  | Ev_bag_free -> "bag_free"
  | Ev_neutralize -> "neutralize"

(** A trace sink: where {!RUNTIME.emit} delivers events when tracing is
    installed. The runtime supplies the emitter's [pid] and a timestamp;
    payloads pass through unchanged. All arguments are immediate (ints and
    an immediate variant), so a call allocates nothing — the sink itself is
    responsible for staying allocation-free per record (see
    {!Qs_obs.Tracer}). *)
type sink = {
  record : pid:int -> time:int -> ev:event -> a:int -> b:int -> unit;
}

module type RUNTIME = sig
  (** {1 Sequentially consistent atomics} *)

  type 'a atomic

  val atomic : 'a -> 'a atomic
  (** Allocate an atomic location. Safe to call outside process context. *)

  val atomic_padded : 'a -> 'a atomic
  (** Like {!atomic}, but the location is isolated against false sharing:
      on the real runtime the cell is one cache line wide (the block
      carries its own padding, so the isolation survives promotion to the
      major heap) and adjacent per-process cells (epoch slots, presence
      flags) do not ping-pong one line between cores; on the simulator it
      is {!atomic} (the simulator's coherence model is per-cell already).
      Use for the elements of per-process arrays written by different
      processes. *)

  val get : 'a atomic -> 'a

  val set : 'a atomic -> 'a -> unit
  (** Sequentially consistent store; drains the issuing process's store
      buffer. *)

  val cas : 'a atomic -> 'a -> 'a -> bool
  (** Compare-and-set using physical equality on the expected value, as
      [Stdlib.Atomic.compare_and_set] does. Drains the store buffer. *)

  val fetch_and_add : int atomic -> int -> int
  (** Atomic fetch-and-add on an integer location. Drains the store
      buffer. *)

  (** {1 Atomic arrays}

      A fixed-length row of sequentially consistent locations with the
      semantics of {!get}/{!set}/{!cas} per element. Simulator: an array
      of cells, each op the same effect as on one {!atomic}, so a
      structure ported from ['a atomic array] keeps its schedules. Real
      runtime: one block holding the elements inline, so an element load
      is a bounds check plus one load — no per-element box to chase. *)

  type 'a atomic_array

  val atomic_array : int -> (int -> 'a) -> 'a atomic_array
  (** [atomic_array n f] allocates [n] locations, element [i] holding
      [f i]. Safe to call outside process context. *)

  val aget : 'a atomic_array -> int -> 'a
  (** {!get} on element [i]. Raises [Invalid_argument] out of bounds. *)

  val aset : 'a atomic_array -> int -> 'a -> unit
  (** {!set} on element [i]. Real runtime: a read/CAS loop, meant for
      preparing a row before it is published. *)

  val acas : 'a atomic_array -> int -> 'a -> 'a -> bool
  (** {!cas} on element [i]: physical equality on the expected value.
      Raises [Invalid_argument] out of bounds. *)

  (** {1 TSO plain rows}

      A plain row is [k] single-writer slots, each holding an [int]: a
      hazard-pointer slot publishes a node's id
      ({!Qs_smr.Smr_intf.NODE.id}), not the node. An [int] store needs no
      GC write barrier, so on real domains a publish compiles to one
      machine store into the row, as the paper's fence-free [assign_HP]
      assumes; a pointer store in OCaml is a [caml_modify] call. A row is
      padded as a whole against false sharing with whatever is allocated
      after it (the next process's row): its own slots share lines, which
      is harmless since one process writes them all. *)

  type plain

  val plain : int -> int -> plain
  (** [plain k v] allocates a row of [k] slots, each holding [v]. Safe to
      call outside process context. *)

  val read : plain -> int -> int
  (** [read r i] reads slot [i]: the issuer's own latest buffered write if
      any (store-to-load forwarding), otherwise the committed value — which
      may be stale with respect to other processes' buffered writes. *)

  val write : plain -> int -> int -> unit
  (** [write r i v] is a buffered store to slot [i]: enqueued in the
      issuer's store buffer; other processes cannot observe it until the
      buffer drains. *)

  (** {1 Ordering, time, identity} *)

  val fence : unit -> unit
  (** Full memory barrier: drains the issuer's store buffer. Deliberately
      expensive — this is the cost hazard pointers pay per traversed node
      and the cost Cadence removes. *)

  val now : unit -> int
  (** Monotone clock. Simulator: virtual ticks on the caller's core plus a
      bounded per-core skew. Real runtime: nanoseconds. Timestamps from
      different processes may disagree by at most the configured epsilon. *)

  val now_coarse : unit -> int
  (** Cheap, possibly-lagging clock for the retire hot path. Contract:

      {[ now_coarse () <= now () <= now_coarse () + T + eps_rooster ]}

      where [T] is the rooster interval and [eps_rooster] the rooster
      oversleep bound — i.e. the coarse clock lags real time by at most one
      rooster period. Simulator: identical to {!now} (the virtual clock is
      already free). Real runtime: the last timestamp published by a
      rooster domain — a single atomic load, replacing a [gettimeofday]
      syscall (and its boxed-float allocation) per [retire]. Freshness
      requires roosters to be running ({!Qs_real.Roosters.start}), which
      Cadence/QSense mandate anyway; without roosters it falls back on the
      timestamp captured at runtime initialisation. See DESIGN.md
      "Hot-path discipline" for why [config.epsilon] absorbs the coarse
      slack on the real runtime. *)

  val self : unit -> int
  (** Identity of the calling process, in [0, n_processes). *)

  val yield : unit -> unit
  (** Cooperation/backoff point. Simulator: a zero-cost preemption point.
      Real runtime: [Domain.cpu_relax]. *)

  val hook : hook -> unit
  (** Labelled schedule point (see {!type:hook}). Free: no time is charged,
      no memory effect, no preemption — purely an annotation for targeted
      schedule exploration. Real runtime: a no-op. *)

  val emit : event -> int -> int -> unit
  (** [emit ev a b] delivers a trace event (see {!type:event} for the
      payload conventions) to the installed {!type:sink}, stamped with the
      caller's identity and a timestamp. With no sink installed this is a
      single load and branch; it never allocates on either runtime, and on
      the simulator it — like {!hook} — costs no virtual time, performs no
      memory effect and is not a preemption point, so enabling tracing
      cannot perturb a seeded schedule. Timestamps come from the cheap
      clock ({!now_coarse} on the real runtime; the virtual clock on the
      simulator), keeping the disabled and enabled paths allocation-free. *)

  val neutralize : pid:int -> unit
  (** [neutralize ~pid] posts a restart signal to process [pid] (DEBRA+'s
      [pthread_kill] analogue). Simulator: marks the target so that the
      scheduler discontinues its suspended computation with {!Neutralized}
      at its next delivery point {e while the target has opted in} via
      [Qs_sim.Scheduler.set_neutralizable] — a target outside an
      interruptible region keeps the signal pending, exactly like a
      masked POSIX signal. Real runtime: a no-op — delivery there is
      purely cooperative, via the scheme's poisoned flag checked at
      protect/retire points (the signal-free fallback Brown describes for
      platforms without per-thread signals). Never raises in the caller;
      costs no virtual time and is not a preemption point for the
      caller. *)

  val neutralize_is_preemptive : bool
  (** Whether {!neutralize} interrupts the victim before its next
      shared-memory access. The simulator says [true]: it discontinues the
      victim's fiber at its next effect, modelling
      [pthread_kill]+[siglongjmp]. The real runtime says [false]: delivery
      is cooperative, so the victim only learns of the restart at its own
      next poisoned-flag check — and between that check and the
      dereference it guards lies a preemption window of unbounded length.
      A scheme must therefore never revoke a victim's protection on its
      behalf when this is [false] (a force-unpinned epoch can cycle and
      reclaim the very node the victim is about to touch); it must fall
      back to acknowledgment — poison, and let the victim unpin itself at
      its next check. *)

  val set_neutralizable : bool -> bool
  (** Allow ([true]) or hold back ([false]) delivery of neutralization
      signals to the calling process; returns the previous setting, for
      the caller to restore. A held-back signal stays pending, like a
      masked POSIX signal. [Qs_ds.Smr_domain] holds delivery back while
      a scheme's [manage_state], [clear_hps] or [retire] runs, so a
      restart never unwinds a scheme half-way through its bookkeeping —
      a retired node not yet banked in limbo would leak (DEBRA+ likewise
      runs reclamation code as if quiescent). Simulator: the flag
      [Qs_sim.Scheduler.set_neutralizable] sets; meta-level, free and
      schedule-neutral. Real runtime: nothing is delivered asynchronously,
      so this is a no-op returning [false]. *)

  val tracing : unit -> bool
  (** Whether {!emit} currently delivers anywhere — a hint for skipping
      whole per-node emission loops on batched reclamation paths (one
      check per bag instead of one dead {!emit} per node). May
      conservatively return [true] (the simulator always does: emission
      there is schedule-neutral and free, and the check must never make
      traced and untraced runs diverge); correctness must not depend on
      the answer. *)
end
