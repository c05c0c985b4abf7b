(** Explicit allocator for data-structure nodes.

    OCaml has a garbage collector, so to reproduce a manual-reclamation
    paper the act of "freeing" must be made explicit and observable. The
    arena provides that: [alloc] hands out nodes (recycling previously freed
    ones through per-process free lists, like the ssmem allocator used by
    ASCYLIB), [free] returns them, and one Free bit per node is the
    oracle — detecting use-after-free ([touch] on a free node), double-free,
    and memory exhaustion (the [outstanding] node count exceeding an
    optional capacity, which models the paper's "the system runs out of
    memory and eventually fails" behaviour of blocked QSBR).

    Per-process handles make the hot path free of shared-memory traffic:
    counters are plain fields owned by one process, aggregated only when
    statistics are read. *)

exception Exhausted
(** Raised by [alloc] when [capacity] outstanding nodes already exist and
    the caller's free list is empty. *)

module type NODE = sig
  type t

  val create : unit -> t
  (** A brand-new node; field initialisation is the caller's business
      ([alloc] clears the Free bit). *)

  val is_free : t -> bool
  val set_free : t -> bool -> unit
  (** The node's Free bit: set by [free], cleared by [alloc]. The paper's
      other node states (§2.1) are a reasoning device; the one property
      checked against them (no process touches a freed node) needs only
      this bit. *)
end

module Make (N : NODE) : sig
  type t
  type handle

  val create : ?capacity:int -> n_processes:int -> unit -> t
  (** [capacity] bounds the number of outstanding (allocated-but-not-freed)
      nodes; omitted means unbounded. *)

  val register : t -> pid:int -> handle

  val alloc : handle -> N.t
  (** Pop the caller's free list, or create a fresh node if the capacity
      allows. The node comes back with its Free bit cleared. Raises
      {!Exhausted} at capacity. *)

  val free : handle -> N.t -> unit
  (** Return a node to the caller's free list and set its Free bit. A node
      already free increments the double-free counter instead. *)

  val free_many : handle -> N.t array -> int -> unit
  (** [free_many h data count] frees [data.(0 .. count-1)] as {!free} does
      — per-node double-free detection, Free bit and free-list push
      included — but updates the shared outstanding counter once for the
      whole batch. This is the bulk-return path for whole limbo bags. The
      array is not retained. *)

  val touch : handle -> N.t -> unit
  (** Record a traversal access to the node: if it is free, the access is
      a use-after-free and increments the violation counter. *)

  val outstanding : t -> int
  (** Allocated-but-not-freed nodes, across all processes. O(1): a shared
      counter maintained by [alloc]/[free], not a fold over handles. *)

  val allocations : t -> int
  val frees : t -> int
  val fresh_nodes : t -> int
  (** Nodes created anew (not recycled). *)

  val reuse_ratio : t -> float
  (** Fraction of allocations served by recycling a freed node instead of
      creating a fresh one: [(allocations - fresh_nodes) / allocations],
      or [0.] before the first allocation. A steady-state workload under a
      working reclamation scheme approaches 1. *)

  val violations : t -> int
  (** Use-after-free accesses detected by [touch]. *)

  val double_frees : t -> int

  val capacity : t -> int option
end
