(** Shared-memory locations for the TSO simulator.

    Two kinds of cell, matching the two kinds of location the runtime
    interface offers:

    - An {e atomic} cell (['a t]) holds only its value in main memory.
      Atomic operations drain the issuing process's store buffer first and
      then act on main memory directly, so an atomic cell never has a
      pending write.
    - A {e plain} cell ({!plain}) holds an [int] and may have pending
      writes: stores sitting in some process's store buffer, invisible to
      every other process. Only plain rows ([Sim_runtime.plain]) are ever
      buffered.

    The scheduler owns the store buffers (one ring per process, holding
    each store's target cell and [int] value, FIFO) and the policy of when
    pending writes commit (fences, context switches, buffer capacity,
    probabilistic drain). A plain cell keeps just enough to answer a read
    in O(1) in the common case: its committed value, its {e newest}
    pending entry (writer pid, the writer's store sequence number, value)
    and how many entries are pending on it. The newest entry is always the
    right answer for its own writer (TSO store-to-load forwarding). A
    process whose own older entry is hidden behind another writer's newer
    one — or behind a newest entry that has already committed — finds it by
    scanning its own ring; the pending count says when that can happen.
    Committing a store is O(1): write the value to main memory, drop the
    count, and clear the newest-entry slot if the store was that entry.
    Commit ORDER decides the final contents, exactly as with a hardware
    store buffer (FIFO per process; cross-process order is the schedule's).

    The fields are exposed because the scheduler's hot paths read and write
    them directly: a cross-module call is never inlined under the dev
    profile's [-opaque]. Nothing outside [lib/sim] should mutate them.

    Cells also carry a last-owner tag used by the scheduler's cache-coherence
    cost model (an access to a line owned by another core is charged a
    remote-miss penalty). *)

type 'a t = {
  mutable committed : 'a;  (** the value in main memory *)
  mutable owner : int;  (** core that last wrote the cell, [-1] when shared/fresh *)
}

val make : 'a -> 'a t
(** A fresh atomic cell whose committed value is the argument. *)

val read_committed : 'a t -> 'a
(** The value in main memory. *)

type plain = {
  mutable value : int;  (** the committed value: what main memory contains *)
  mutable p_owner : int;  (** as [owner] above *)
  mutable s_pid : int;  (** writer of the newest pending entry, [-1] = none *)
  mutable s_seq : int;  (** that entry's store sequence number in its writer's ring *)
  mutable s_val : int;  (** that entry's value *)
  mutable n_pending : int;  (** pending entries on this cell, all processes *)
}

val make_plain : int -> plain
(** A fresh plain cell with no pending write. *)

val plain_committed : plain -> int
(** The value in main memory, ignoring all store buffers. *)

val pending_count : plain -> int
(** Number of uncommitted writes currently targeting this cell (all
    processes). Used by tests. *)
