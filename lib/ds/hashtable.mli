(** Michael's lock-free hash table (SPAA 2002, the paper's reference [24]):
    a fixed array of buckets, each an independent {!Linked_list} sharing
    one arena and one reclamation-scheme instance. Keys must be
    non-negative. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  type t
  type ctx
  type node

  val default_buckets : int
  val hp_per_process : int
  val nodes_per_key : int

  val create : Set_intf.config -> t
  (** [default_buckets] buckets. *)

  val create_sized : n_buckets:int -> Set_intf.config -> t
  (** Raises [Invalid_argument] unless [n_buckets] is a positive power of
      two. *)

  val register : t -> pid:int -> ctx

  val bucket_index : t -> int -> int
  (** The bucket a key routes to — a Fibonacci hash taking the {e high}
      bits of the multiplicative product. Exposed for distribution
      tests. *)

  val search : ctx -> int -> bool
  (** The bucket's {!Linked_list.Make.search_in} — the KV service's get
      path, pinned at zero heap words per request. *)

  val insert : ctx -> int -> bool
  val delete : ctx -> int -> bool

  val search_ro : ctx -> int -> bool
  (** [search] under its old name, kept only because the service
      benchmark (perfbench/real.ml) calls it; it goes when that runner
      is ported to the harness. *)

  val to_list : ctx -> int list
  (** Sorted, for comparability with the other set implementations. *)

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
  val report : t -> Set_intf.report
  val retired_count : t -> int
  val violations : t -> int
  val outstanding : t -> int

  val validate : ctx -> unit
  (** Check structural invariants; raises [Failure] on corruption.
      Sequential context only. *)
end
