(** Concurrent-operation histories for linearizability checking.

    Workers record one entry per completed set operation with invocation and
    response timestamps taken from the runtime clock. Recording is
    per-process (no shared mutable state on the hot path); {!entries} merges
    the logs afterwards. *)

type op_kind = Search | Insert | Delete

type entry = {
  pid : int;
  op : op_kind;
  key : int;
  result : bool;
  inv : int;  (** invocation timestamp *)
  res : int;  (** response timestamp; must be >= [inv] *)
}

type t

val create : n:int -> t
(** A history for [n] processes. *)

val record :
  t -> pid:int -> op:op_kind -> key:int -> inv:int -> res:int -> result:bool -> unit

val entries : t -> entry list
(** All recorded entries, in no particular order. *)

val length : t -> int
