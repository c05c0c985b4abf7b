(** The {!Qs_intf.Runtime_intf.RUNTIME} instance backed by the deterministic
    TSO simulator. All functions (except cell creation) must be called from
    inside a fiber started with {!Scheduler.exec} or {!Scheduler.spawn};
    elsewhere they raise [Effect.Unhandled]. *)

include
  Qs_intf.Runtime_intf.RUNTIME
    with type 'a atomic = 'a Cell.t
     and type 'a atomic_array = 'a Cell.t array
     and type plain = Cell.plain array

val sleep_until : int -> unit
(** Block the calling process until its core clock reaches the target tick.
    A sleeping process makes no steps — this is how prolonged process delays
    are injected. Its store buffer is {e not} drained by sleeping (only by
    rooster wake-ups, modelling a process stalled mid-operation). *)

val charge : int -> unit
(** Account extra virtual ticks of local (non-memory) work to the caller. *)
