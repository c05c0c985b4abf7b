(** The common interface of all safe-memory-reclamation (SMR) schemes.

    Every scheme implements {!module-type:S}, functorised over the
    {!Qs_intf.Runtime_intf.RUNTIME} it executes on and the node type it
    protects: Leaky (the paper's "None"); the hazard engine's classic
    hazard pointers, unfenced hazard pointers and Cadence; the epoch
    engine's QSBR, EBR and DEBRA+; Hyaline; and QSense with its naive
    variant, built on both engines ({!Scheme.kind} lists them). Data structures interact with reclamation exclusively through
    the paper's three-function interface plus registration:

    - {!S.manage_state} — the paper's [manage_qsense_state] (rule 1): call
      in states where no shared references are held, i.e. between
      operations. Amortised internally over the quiescence threshold [Q].
    - {!S.assign_hp} — the paper's [assign_HP] (rule 2): publish a hazard
      pointer before using a reference.
    - {!S.retire} — the paper's [free_node_later] (rule 3): call where a
      sequential program would call [free]. *)

module type NODE = sig
  type t

  val id : t -> int
  (** A stable identity for the node, constant for the node's whole
      lifetime (across arena reuse too — it identifies the {e object}, not
      the allocation). It is also the value a hazard pointer publishes:
      the slots of {!Hp_array} are [int] cells, so [assign_hp] stores
      [id n] with no GC write barrier, and a snapshot reads ids straight
      into an open-addressing hash set with O(1) expected membership and
      zero per-scan allocation, in place of physical-equality list scans.
      Collisions are {e safe} — a node sharing an id with a protected
      node is merely kept one scan longer — but hurt reclamation latency,
      so ids should be unique in practice (the data structures stamp each
      node from a per-structure counter at creation). The one exception
      is the dummy's id, which marks an empty slot: no retired node may
      carry it. Physical equality on OCaml objects cannot be hashed or
      ordered directly (the GC moves objects), hence this explicit
      identity. *)
end

type config = {
  n_processes : int;  (** N — worker processes *)
  hp_per_process : int;  (** K — hazard pointers per process *)
  quiescence_threshold : int;
      (** Q — operations batched per declared quiescent state (§3.1), or
          between epoch-advance attempts. Clamped to [>= 1]
          ({!effective_quiescence_threshold}), so [<= 0] means "every
          operation". *)
  scan_threshold : int;
      (** R — the hazard-pointer scan trigger: classic and unfenced HP
          scan whenever a retire leaves >= R nodes in the removed list;
          Cadence and QSense's fallback path, whose young nodes survive a
          scan, scan every R retires. Clamped to [>= 1]
          ({!effective_scan_threshold}), so [scan_threshold <= 0] means
          "scan on every retire". *)
  rooster_interval : int;
      (** T — rooster sleep interval, in [RUNTIME.now] units. The runtime
          must actually run roosters at this interval (simulator config /
          {!Qs_real.Roosters}) for Cadence/QSense safety. *)
  epsilon : int;
      (** ε — bound on rooster oversleep plus cross-core clock skew (§5.1) *)
  switch_threshold : int;
      (** C — limbo-list size that triggers the fallback switch (§5.2).
          [<= 0] selects the smallest legal value of Property 4. *)
  removes_per_op_max : int;
      (** m — most nodes one operation can remove (1 for the linked list,
          2 for the external BST: leaf + internal router). *)
  eviction_timeout : int option;
      (** Extension (the paper's §5.2 future work): while in fallback mode,
          a process that has not signalled presence for this long is
          evicted, letting the system return to the fast path even if the
          process never recovers. [None] disables eviction (the paper's
          published behaviour: a crashed process pins QSense in fallback
          mode forever). *)
  bag_capacity : int;
      (** Nodes per limbo bag (clamped [>= 1]). QSBR, EBR, DEBRA+, HP,
          Cadence and QSense keep their limbo lists as DEBRA-style batched
          bags ({!Qs_util.Bag}): stamp once per sealed bag,
          oldest-bag-first walks, bulk frees. Hyaline sizes its own
          reference-counted batches with it; Leaky keeps no limbo. Larger
          bags amortise the stamp check and the arena free over more nodes
          but delay reclamation of a bag's oldest node by up to one
          bag-fill. *)
}

let default_config ~n_processes ~hp_per_process =
  { n_processes;
    hp_per_process;
    quiescence_threshold = 64;
    scan_threshold = 64;
    rooster_interval = 5_000;
    epsilon = 500;
    switch_threshold = 0;
    removes_per_op_max = 1;
    eviction_timeout = None;
    bag_capacity = 64 }

(** R clamped to [>= 1]: Cadence and QSense count retires down from R to
    schedule their scans, and a countdown from [R <= 0] would never fire;
    a threshold of 1 ("scan on every retire") is the closest legal
    reading of such a config. *)
let effective_scan_threshold cfg = max 1 cfg.scan_threshold

(** Q clamped to [>= 1], the way R is: the schemes count operations down
    from Q, a countdown from [Q <= 0] would never fire, and quiescing on
    every operation is the closest legal reading of such a config. *)
let effective_quiescence_threshold cfg = max 1 cfg.quiescence_threshold

(** The smallest legal fallback-switch threshold per Property 4:
    [C > max (m*Q) (N*K + T) ((K + T + R) / 2)]. *)
let legal_switch_threshold cfg =
  let m = cfg.removes_per_op_max
  and q = effective_quiescence_threshold cfg
  and n = cfg.n_processes
  and k = cfg.hp_per_process
  and t = cfg.rooster_interval
  and r = effective_scan_threshold cfg in
  1 + max (m * q) (max ((n * k) + t) ((k + t + r) / 2))

type mode = Fast | Fallback

type stats = {
  retires : int;
  frees : int;
  scans : int;  (** hazard-pointer scans performed *)
  epoch_advances : int;
      (** global-epoch increments (QSBR, EBR, DEBRA+ and QSense) *)
  fallback_entries : int;
      (** Completed fast-path → fallback transitions (the hybrid schemes;
          0 elsewhere), so robustness tests assert mode round-trips
          directly instead of inferring them from reclamation counts. *)
  fallback_exits : int;
      (** Completed fallback → fast-path transitions (presence flags
          refilled, or eviction). *)
  fallback_ticks : int;
      (** Total [RUNTIME.now] time spent in fallback mode over completed
          fallback episodes; an ongoing episode counts only once it exits.
          Simulator: virtual ticks. Real runtime: nanoseconds. *)
  evictions : int;
  neutralizations : int;
      (** DEBRA+-style neutralizations performed by this scheme: delayed
          processes whose epoch was forcibly unpinned after a restart
          signal was posted to them. 0 for every other scheme. Monotone
          across churn: counts performed by since-departed handles are
          folded into the instance at {!S.unregister}. *)
  retired_now : int;  (** removed-but-unfreed nodes at this instant *)
  retired_peak : int;
  mode : mode;
}

let zero_stats =
  { retires = 0;
    frees = 0;
    scans = 0;
    epoch_advances = 0;
    fallback_entries = 0;
    fallback_exits = 0;
    fallback_ticks = 0;
    evictions = 0;
    neutralizations = 0;
    retired_now = 0;
    retired_peak = 0;
    mode = Fast }

module type S = sig
  type node
  type t
  type handle

  val name : string

  val create :
    config -> dummy:node -> free_bulk:(node array -> int -> unit) -> t
  (** [dummy]'s id fills unused hazard-pointer slots and [dummy] fills
      blank limbo-bag slots (avoiding [option] boxing on the traversal
      fast path).
      [free_bulk data count] is the arena's reclamation function: it frees
      the first [count] elements of [data] in one call, and every node
      handed to {!retire} that the scheme decides is safe reaches it
      exactly once — a whole bag at a time (the callee must not retain
      [data]). *)

  val register : t -> pid:int -> handle
  (** Per-process handle; [pid] must be in [0, n_processes) and not
      currently held by a live handle. A pid slot vacated by {!unregister}
      may be re-registered (worker churn); the fresh handle rejoins the
      scheme's grace-period machinery on its first {!manage_state} call,
      so mid-run re-registration must happen in process context. *)

  val unregister : handle -> unit
  (** Dynamic membership: retire the caller's pid slot. The handle's
      hazard pointers are cleared, its epoch/presence cells are marked
      absent (so grace periods and presence agreement no longer wait on
      it), its limbo lists are donated to the scheme's shared orphan pool,
      and the pid becomes available to a later {!register}. Survivors
      adopt and reclaim the orphaned nodes opportunistically — epoch-based
      schemes on epoch adoption (after a fresh grace period), scanning
      schemes on their next scan, the hybrid always through the
      hazard-pointer + age filter. Must be called by the owning process,
      in process context, between operations (no shared references held);
      the handle is dead afterwards (only {!flush} stays legal, as a
      no-op). *)

  val manage_state : handle -> unit
  val assign_hp : handle -> slot:int -> node -> unit
  val clear_hps : handle -> unit
  (** Reset all of the caller's hazard pointers to the dummy's id (rule 2's
      "release reference" at the end of an operation). The hazard
      schemes store only the slots published since the last clear, so
      the cost is one store per slot the operation used, not one per
      slot of the row. *)

  val retire : handle -> node -> unit

  val flush : handle -> unit
  (** Teardown only: free everything in the caller's local lists without
      safety checks. Call after all workers have stopped. *)

  val retired_count : t -> int
  val stats : t -> stats
end

(** What a scheme functor looks like. {!Scheme.Dispatch} applies the one
    a config names to a structure's node type; each structure's
    reclamation domain ([Qs_ds.Smr_domain]) keeps the result as a
    first-class module packed with its instance and per-process handles,
    and calls it directly. *)
module type MAKER = functor (R : Qs_intf.Runtime_intf.RUNTIME) (N : NODE) ->
  S with type node = N.t
