(** Lock-free skip-list set (Fraser-style, as in ASCYLIB) — the second of
    the paper's evaluation structures, and the one that stresses
    hazard-pointer maintenance hardest: two hazard pointers per level plus
    one for the inserter's own node (K = 33 here; the paper quotes up to
    35), which is why the paper's QSense-vs-QSBR gap is widest on the skip
    list.

    Level-0 membership is authoritative; deletion marks top-down and the
    level-0 mark winner owns the removal: it unlinks the node level by level
    on its positioning pass's witnesses, or with one traversal pass, and
    then retires it. Search and range counts allocate nothing. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  type t
  type ctx
  type node

  val hp_per_process : int
  (** K = 2 × 16 + 1: two per level (16 levels), plus the inserter's own
      node. *)

  val nodes_per_key : int

  val create : Set_intf.config -> t
  val register : t -> pid:int -> ctx

  val search : ctx -> int -> bool
  val insert : ctx -> int -> bool
  val delete : ctx -> int -> bool

  val range_count : ctx -> lo:int -> hi:int -> int
  (** Number of keys currently in [lo, hi] (inclusive): the search pass for
      [lo] continued along the authoritative level-0 chain, restarting from
      [lo] on interference. Allocation-free. Under hazard pointers it holds
      at most the two level-0 slots it alternates, plus the upper-level
      stops of its positioning pass, at any moment; under epoch-based
      schemes the whole walk is one operation, which holds back epoch
      advances far longer than a point operation does. Raises
      [Invalid_argument] if [hi < lo]. *)

  val to_list : ctx -> int list
  val size : ctx -> int

  val nodes : ctx -> node list
  (** The unmarked nodes of the level-0 chain, in key order. Sequential
      context only. *)

  val uid : node -> int
  (** The node's identity, stable across its reuse by the arena. *)

  val key : node -> int

  val top : node -> int
  (** The index of the node's highest level, drawn at its first insert
      and kept across reuse. *)

  val heartbeat : ctx -> unit
  (** Scheme bookkeeping (quiescence announcement, epoch advance) without
      performing an operation — composite services call this on idle
      structures so epoch-based schemes never see a registered-but-silent
      process. Process context, between operations. *)

  val unregister : ctx -> unit
  (** Leave the computation: retire the SMR pid slot, donating its limbo
      lists to the scheme's orphan pool; the slot may be re-registered
      later (worker churn). Process context, between operations. *)

  val flush : ctx -> unit
  val report : t -> Set_intf.report
  val retired_count : t -> int
  val violations : t -> int
  val outstanding : t -> int

  val validate : ctx -> unit
  (** Check structural invariants; raises [Failure] on corruption.
      Sequential context only. *)
end
