(** Coverage-guided seed scheduling (DESIGN.md §12).

    The observatory's event stream doubles as a coverage signal: a
    per-event counter sink classifies each explorer run by which scheme
    transitions it reached, and {!grow} breeds a corpus that keeps
    witnesses for the rare classes — QSense fallback entry, eviction-seize,
    unregister, orphan adoption, bag sealing — by prioritizing the seed
    neighborhoods of cases that hit them. Growth is deterministic: results
    are processed in frontier order, so the same base list yields the same
    corpus for any [jobs] count. *)

type t = { counts : int array }
(** Event counts for one run, indexed by
    {!Qs_intf.Runtime_intf.event_index}. *)

val n_events : int

val create : unit -> t

val sink : t -> Qs_intf.Runtime_intf.sink
(** Counting sink; allocation-free per record. *)

val count : t -> Qs_intf.Runtime_intf.event -> int
val covers : t -> int -> bool

val rare_classes : (string * int) list
(** [(name, event_index)] of the event classes the corpus must witness. *)

val run_covered : Explorer.case -> Explorer.outcome * t
(** {!Explorer.run_one} with a counting sink installed (schedule-neutral:
    the verdict equals the sink-free run's). *)

type growth = {
  selected : (Explorer.case * t) list;  (** acceptance order *)
  class_counts : int array;
      (** per event index: how many selected cases reached it *)
  runs : int;  (** {!Explorer.run_one} invocations spent *)
}

val grow :
  ?jobs:int ->
  ?batch:int ->
  ?budget:int ->
  ?quota:int ->
  target:int ->
  Explorer.case list ->
  growth
(** [grow ~target base] explores from the [base] frontier until [target]
    passing cases are selected (or [budget] runs are spent), batching
    [batch] cases at a time through {!Explorer_pool.map} with [jobs]
    workers. Failing cases are never selected (the corpus is known-clean by
    construction); cases hitting a rare class whose selected-witness count
    is below [quota] get their deterministic seed neighborhood (nearby
    seeds, PCT-style depth mutations, bag-capacity flips) enqueued ahead
    of the uniform backlog. *)
