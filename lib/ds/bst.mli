(** Lock-free external binary search tree (Ellen et al.-style flag/mark
    cooperation) — the third of the paper's evaluation structures, with
    K = 6 hazard pointers per process as in the paper's
    (Natarajan-Mittal) tree.

    Keys live in leaves; internal nodes route. Deletion removes a leaf and
    its internal parent (m = 2 removals per operation — relevant to
    Property 4's legal C). Removed internal nodes have their child edges
    poisoned before being retired, so traversal validations remain sound
    under reclamation. Real keys must lie below the two infinity
    sentinels' keys. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  type t
  type ctx
  type node

  val hp_per_process : int
  (** K = 6: three rotating traversal slots + one helper slot + slack. *)

  val nodes_per_key : int
  (** 2 — each present key owns a leaf and an internal router. *)

  val create : Set_intf.config -> t
  val register : t -> pid:int -> ctx

  val search : ctx -> int -> bool

  val insert : ctx -> int -> bool
  (** Raises [Invalid_argument] for a key that is not below the
      sentinels'. *)

  val delete : ctx -> int -> bool

  val to_list : ctx -> int list
  val size : ctx -> int
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
