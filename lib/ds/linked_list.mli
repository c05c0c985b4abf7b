(** Harris-Michael lock-free linked-list set over integer keys — the first
    of the paper's three evaluation structures (its appendix shows the
    QSense integration on exactly this list, Algorithms 6-7).

    Two hazard pointers per process, each published before its
    validation read per Condition 1: insert and delete hold the
    predecessor in slot 0 and the current node in slot 1, and the
    membership search alternates the two, one publish per node.
    Deletion marks the victim's link (logical) then unlinks it (physical);
    the winner of the physical unlink CAS retires the node.

    Links are canonical: each node carries its unmarked and marked link
    values, built once when the node is created, so insert and delete
    allocate nothing. A CAS compares (dest, mark), and ABA safety rests on
    reclamation: every CAS's witness names a node held by a hazard pointer
    (or the operation's epoch), which cannot be recycled. The one
    unprotected witness, the successor in delete's mark CAS, is benign:
    that CAS writes the marked form of exactly the link it found. The
    implementation's header argues each CAS site.

    Also the building block of {!Hashtable}: the [_in] operations run on an
    explicit bucket head sharing this list's arena, reclamation scheme and
    tail sentinel. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  type t
  (** The shared set. *)

  type ctx
  (** Per-process operation context; one per registered process. *)

  type node

  val hp_per_process : int
  (** K = 2. *)

  val nodes_per_key : int

  val create : Set_intf.config -> t

  val register : t -> pid:int -> ctx
  (** Each worker registers once with a distinct pid in
      [0, n_processes). *)

  (** {1 Set operations (linearizable)} *)

  val search : ctx -> int -> bool
  val insert : ctx -> int -> bool
  val delete : ctx -> int -> bool

  (** {1 Hash-table bucket interface} *)

  val new_bucket : t -> node
  (** A fresh head sentinel chained to the shared tail; never reclaimed. *)

  val search_in : ctx -> bucket:node -> int -> bool
  (** Membership ([search] on a bucket): one hazard-pointer publish per
      node, no allocation, and no write until a marked link, where it
      finishes with the snipping walk of insert and delete. *)

  val insert_in : ctx -> bucket:node -> int -> bool
  val delete_in : ctx -> bucket:node -> int -> bool
  val to_list_in : ctx -> bucket:node -> int list
  val validate_in : ctx -> bucket:node -> unit

  (** {1 Inspection — process context, no concurrent mutators} *)

  val to_list : ctx -> int list
  val size : ctx -> int

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
  (** Teardown: force-free the caller's retired backlog. *)

  val report : t -> Set_intf.report
  val retired_count : t -> int
  val violations : t -> int
  val outstanding : t -> int

  val validate : ctx -> unit
  (** Check structural invariants; raises [Failure] on corruption.
      Sequential context only. *)
end
