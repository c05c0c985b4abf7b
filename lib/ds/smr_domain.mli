(** One data structure's reclamation domain: its node arena and the
    reclamation-scheme instance picked by [Set_intf.config.scheme], with
    their per-process handles. A structure holds one domain and reaches
    reclamation only through it — the paper's three calls
    ({!manage_state}, {!assign_hp}, {!retire}) plus registration and the
    arena's allocation and use-after-free oracle. Each handle operation is
    one call into the scheme. *)

module type NODE = sig
  include Qs_arena.Arena.NODE
  include Qs_smr.Smr_intf.NODE with type t := t
end

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : NODE) : sig
  type t
  type ctx
  (** Per-process: the arena handle and the scheme handle. *)

  val create :
    Set_intf.config ->
    hp_per_process:int ->
    removes_per_op_max:int ->
    dummy:N.t ->
    t
  (** Builds the arena, then the scheme instance with the structure's K
      ([hp_per_process]) and m ([removes_per_op_max]) in place of the
      config's. [dummy] is a never-reclaimed sentinel whose id fills
      unused hazard-pointer slots. Freed nodes go to the free list of the process
      running the scan. *)

  val register : t -> pid:int -> ctx

  val alloc : ctx -> N.t

  val alloc_initial : t -> N.t
  (** An allocation on process 0's books, for contents a structure builds
      at creation time (the queue's first dummy). *)

  val free : ctx -> N.t -> unit
  (** Return a node that was never published straight to the arena. *)

  val touch : ctx -> N.t -> unit
  (** Use-after-free oracle on a traversal access; a no-op unless
      [debug_checks]. Callers pre-filter: a structure's own [touch] reads
      the node's Free bit itself and calls this only when it is set, so a
      traversal step pays no call for a live node. This checks again, so
      the violation count is the same either way. *)

  (** {1 The scheme's handle operations}

      [manage_state], [clear_hps] and [retire] run with neutralization
      delivery held back on a runtime that delivers it preemptively (see
      [RUNTIME.set_neutralizable]), so a restart never leaves a scheme
      half-way through its bookkeeping; it lands at the structure's next
      shared access instead. A [retire] that raises has banked its node. *)

  val manage_state : ctx -> unit
  val assign_hp : ctx -> slot:int -> N.t -> unit
  val clear_hps : ctx -> unit
  val retire : ctx -> N.t -> unit
  val unregister : ctx -> unit
  val flush : ctx -> unit

  val held : (unit -> 'a) -> 'a
  (** [held f] runs [f] with delivery held back in the same way, for a
      structure's own window between an effect and the bookkeeping that
      makes unwinding from it safe (a node allocated but not yet recorded
      for the unwind handler, a removal won but not yet retired). *)

  val report : t -> Set_intf.report
  val retired_count : t -> int
  val violations : t -> int
  val outstanding : t -> int
end
