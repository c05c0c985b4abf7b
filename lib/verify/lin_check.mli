(** Linearizability checking for integer-set histories.

    Exploits compositionality (Herlihy & Wing): an integer set is the
    product of independent per-key membership objects — [search]/[insert]/
    [delete] of key [k] touch only [k]'s membership — so a history is
    linearizable iff each per-key sub-history is. Each sub-history is
    checked with the Wing-Gong / WGL algorithm over a boolean model, with
    memoisation on (set of linearized operations, model state). A pending
    insert or delete may take effect at any point after its invocation, or
    never; a pending search is dropped.

    Per-key sub-histories are limited to 60 operations (a bitmask); the
    test harness keeps histories within that. *)

type verdict = Ok | Violation of int  (** offending key *) | Too_large of int

val check_set : initial:int list -> History.entry list -> verdict
(** [check_set ~initial entries] — [initial] lists the keys present before
    the history started. Entries that respond before their invocation are
    rejected by [Invalid_argument]. *)

val is_linearizable : initial:int list -> History.entry list -> bool
(** [check_set] as a boolean; [Too_large] raises [Invalid_argument]. *)
