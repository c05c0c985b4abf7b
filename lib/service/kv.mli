(** Sharded, SMR-backed key-value service: point get/put/delete on
    hash-table shards, range scans on a skip-list index, every structure
    running its own instance of the reclamation scheme under test. The
    table is authoritative; the index is a secondary structure maintained
    after the table op commits (scans are advisory counts). A periodic
    heartbeat runs scheme bookkeeping across all structures so that
    epoch-based schemes never see a registered-but-silent process. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  type t
  type ctx

  val create : ?n_shards:int -> Qs_ds.Set_intf.config -> t
  (** [n_shards] must be a positive power of two (default 8). *)

  val n_shards : t -> int

  val shard_index : t -> int -> int
  (** The shard a key routes to (Fibonacci hash bits disjoint from the
      per-shard bucket bits). Exposed for distribution tests. *)

  val register : t -> pid:int -> ctx

  val get : ctx -> int -> bool
  val put : ctx -> int -> bool
  val del : ctx -> int -> bool

  val scan : ctx -> lo:int -> hi:int -> int
  (** Number of index keys currently in [lo, hi] (inclusive). *)

  val unregister : ctx -> unit
  (** Handler churn: retire this pid's SMR slot in every structure
      (limbo lists go to each instance's orphan pool); re-register to
      rejoin under the same pid. Process context, between requests. *)

  val flush : ctx -> unit

  (** {1 Inspection — sequential context} *)

  val to_list : ctx -> int list
  (** Authoritative contents: union of the shard tables, sorted. *)

  val size : ctx -> int
  val index_size : ctx -> int

  val live_nodes : ctx -> int
  (** Total live nodes across shards and index (leak baseline). *)

  val validate : ctx -> unit

  (** {1 Aggregates over all scheme instances} *)

  val violations : t -> int
  val outstanding : t -> int
  val retired_count : t -> int
  val report : t -> Qs_ds.Set_intf.report
  (** Arena and scheme counters summed over every shard and the index.
      [smr.mode] is [Fallback] if any instance is in fallback. [smr.retired_peak] is the
      sum of the per-instance peaks, which need not coincide in time: an
      upper bound on the service-wide peak. *)
end
