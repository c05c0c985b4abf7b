(** The epoch engine: QSBR, EBR and DEBRA+ as one body, and the epoch
    pieces QSense's fast path shares.

    EBR (Fraser-style; the paper's §8 "epoch-based techniques" bucket) is
    the baseline between QSBR and the robust schemes: each operation pins
    the current global epoch on entry ([manage_state]) and unpins on exit
    (the [clear_hps] end-of-operation hook); the global epoch advances
    once every {e active} process has observed it. Hence a process idle
    {e between} operations does not block reclamation (unlike QSBR), but
    a process stalled {e inside} an operation still does — the residual
    weakness QSense's fallback path removes. [assign_hp] is a no-op. *)

module type POLICY = sig
  val scheme_name : string

  val per_operation : bool
  (** Where a process announces its epoch: [true] pins it for every
      operation (EBR, DEBRA+); [false] announces a quiescent state every
      Q operations (QSBR). *)

  val neutralize : bool
  (** Whether laggards pinned to an old epoch are restarted (DEBRA+). *)
end

module Make_gen (P : POLICY) (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) : sig
  include Smr_intf.S with type node = N.t

  val expired_bag :
    free_bulk:(node array -> int -> unit) ->
    Counters.t ->
    node array -> int array -> int -> int -> unit
  (** The grace-period free of a limbo bag: frees the bag, counts the
      frees and emits them with age -1 (no clock read). *)

  val advance : int R.atomic -> Counters.t -> int -> unit
  (** [advance global c eg]: try to move the global epoch from [eg] to the
      next one, counting and emitting the advance if this call made it. *)
end

module Make : Smr_intf.MAKER
(** EBR proper: per-operation pinning, no neutralization. *)
