(** Linearizability checking for integer-set histories.

    Exploits compositionality (Herlihy & Wing): an integer set is the
    product of independent per-key membership objects — [search]/[insert]/
    [delete] of key [k] touch only [k]'s membership — so a history is
    linearizable iff each per-key sub-history is. Each sub-history is
    checked by a just-in-time linearization search (Lowe) over a boolean
    model: it walks the invocations and responses in time order and
    linearizes operations only as responses force them. A pending insert or
    delete may take effect at any point after its invocation, or never; a
    pending search is dropped.

    The search is memoised on the operations open at one moment, so its
    cost grows with the concurrency width of a key's sub-history, not with
    its length: a history of any length is checked. *)

type verdict = Ok | Violation of int  (** offending key *)

val check_set : initial:int list -> History.entry list -> verdict
(** [check_set ~initial entries] — [initial] lists the keys present before
    the history started. Entries that respond before their invocation are
    rejected by [Invalid_argument]. *)

val is_linearizable : initial:int list -> History.entry list -> bool
(** [check_set] as a boolean. *)
