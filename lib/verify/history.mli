(** Concurrent-operation histories for linearizability checking.

    Each process invokes one operation at a time: {!invoke} opens it,
    {!respond} closes it with its result. Both take a timestamp from a clock
    that totally orders the processes' steps (the simulator's global step
    index). An operation that is invoked and never answered is {e pending}:
    a crashed operation, one aborted by a neutralization signal and retried,
    or one interrupted by memory exhaustion. It may or may not have taken
    effect. Recording is per-process (no shared mutable state on the hot
    path); {!entries} merges the logs afterwards. *)

type op_kind = Search | Insert | Delete

type response = { res : int;  (** response timestamp; >= [inv] *) result : bool }

type entry = {
  pid : int;
  op : op_kind;
  key : int;
  inv : int;  (** invocation timestamp *)
  response : response option;  (** [None]: pending *)
}

type t

val create : n:int -> t
(** A history for [n] processes. *)

val invoke : t -> pid:int -> op:op_kind -> key:int -> at:int -> unit
(** Open [pid]'s next operation. An operation [pid] still has open was
    never answered and stays in the history as pending. *)

val respond : t -> pid:int -> result:bool -> at:int -> unit
(** Close [pid]'s open operation. Raises [Invalid_argument] if none is
    open. *)

val entries : t -> entry list
(** All entries, in no particular order; operations still open are
    pending. *)
