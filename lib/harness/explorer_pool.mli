(** Parallel schedule exploration: shard {!Explorer} cases across real
    domains (see DESIGN.md §12, "Exploration at scale").

    Worker isolation invariant: a case's outcome depends on the case line
    alone — every simulator instance, arena, scheme and PRNG stream is
    created per {!Explorer.run_one} call and shares no mutable state with
    other runs — so solo and pooled execution produce bit-identical
    outcomes for the same case (enforced by test/test_explorer_pool.ml). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): leave one core
    for the coordinator. *)

val map : ?jobs:int -> (Explorer.case -> 'b) -> Explorer.case array -> 'b array
(** [map ~jobs f cases] runs [f] on every case across [jobs] worker
    domains (default {!default_jobs}; [jobs <= 1] runs solo in the calling
    domain) and returns the results in input order. [f]
    must be safe to call concurrently from several domains —
    {!Explorer.run_one} and anything built on it qualifies. *)

val outcomes :
  ?jobs:int -> Explorer.case list -> (Explorer.case * Explorer.outcome) list
(** Pooled {!Explorer.run_one} over the whole list; complete, input order,
    bit-identical to the solo sweep. *)
