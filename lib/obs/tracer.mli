(** Per-process, fixed-capacity ring-buffer trace recorder.

    A tracer owns one ring per worker process plus one {e system} ring
    (index [n_processes]) that collects events from unregistered emitters —
    real-runtime rooster domains emit with pid [-1], and any out-of-range
    pid lands there rather than being lost or corrupting a worker ring.

    {b Overhead discipline} (see DESIGN.md §9). [record] is the only
    function on the hot path and it allocates nothing: four [int array]
    stores plus ring-index arithmetic into preallocated storage. Events are
    packed into a flat [int array] of 4-word slots (time, event index, a,
    b), not records, so recording never touches the allocator and never
    triggers GC on a traced run. An untraced run installs no sink at all.

    When the ring is full the {e oldest} event is overwritten and the
    per-ring [dropped] counter increments monotonically, so post-processing
    can tell a complete trace from a truncated one.

    Rings are single-writer by construction on both runtimes (the
    simulator is sequential; on real domains each process writes only its
    own ring, and the system ring is only contended by rooster domains,
    whose events are rare and whose occasional lost increment we accept —
    the rings are diagnostics, not synchronisation). *)

type t

val create : n_processes:int -> capacity:int -> unit -> t
(** [create ~n_processes ~capacity ()] preallocates [n_processes + 1] rings
    of [capacity] events each ([capacity >= 1]; the extra ring is the
    system ring). *)

val capacity : t -> int
val n_processes : t -> int

val record : t -> pid:int -> time:int -> ev:Qs_intf.Runtime_intf.event ->
  a:int -> b:int -> unit
(** Record one event into [pid]'s ring (or the system ring when [pid] is
    outside [0, n_processes)). Allocation-free; see the overhead
    discipline above. *)

val sink : t -> Qs_intf.Runtime_intf.sink
(** The sink closing over this tracer, to install via
    [Scheduler.set_sink] / [Real_runtime.set_sink] or a harness setup.
    Allocated once here — installing and using it records with zero
    further allocation. *)

(** {1 Reading a trace} *)

type entry = {
  pid : int;  (** ring index; [n_processes] = the system ring *)
  time : int;
  ev : Qs_intf.Runtime_intf.event;
  a : int;
  b : int;
}

val length : t -> pid:int -> int
(** Events currently held in this ring (at most [capacity]). *)

val dropped : t -> pid:int -> int
(** Events overwritten in this ring so far; monotone. *)

val total : t -> int
(** Sum of {!length} over all rings. *)

val total_dropped : t -> int

val to_array : t -> entry array
(** All retained events, merged across rings and sorted by
    [(time, pid, ring order)] — a stable global timeline. Allocates; call
    after the run. *)

val ring_to_array : t -> pid:int -> entry array
(** One ring's retained events, oldest first. *)

val clear : t -> unit
(** Empty every ring and zero the dropped counters. *)
