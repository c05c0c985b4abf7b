(** DEBRA-style limbo bags: fixed-capacity blocks (default 64 nodes)
    chained into a per-limbo-list deque, each node stored with its retire
    timestamp. A block is {e sealed} when it fills, stamped with its
    newest — hence, by clock monotonicity, maximum — timestamp;
    reclamation walks sealed bags oldest-first and frees a whole bag's
    nodes in one bulk call, stopping at the first bag that is still
    unreclaimable. Emptied blocks return to a per-process cache, so
    steady-state retire/scan is allocation-free. Single-owner; donation
    moves sealed chains intact via {!splice_into}.

    The one limbo representation of every scheme that keeps limbo lists:
    Cadence and QSense push real retire timestamps; QSBR, EBR, DEBRA+ and
    HP push a constant stamp and never read it (HP scans with an
    always-true [age_ok]). *)

type 'a source
(** Per-process block factory + recycling cache, shared by all of one
    process's limbo deques so blocks circulate between them. *)

val source : ?capacity:int -> 'a -> 'a source
(** [source ?capacity dummy] — [capacity] (default 64, clamped [>= 1]) is
    the per-block node count; [dummy] blanks vacated slots. *)

val capacity : 'a source -> int

type 'a t

val create : 'a source -> 'a t
val length : 'a t -> int

val push : 'a t -> 'a -> int -> int
(** [push t x ts] appends [x] with retire timestamp [ts] to the open
    block. Returns the size of the bag this push sealed (= block
    capacity), or [0] if the open block still has room — the caller uses
    this to emit its bag-seal event. Allocation-free whenever the block
    cache is non-empty (steady state). *)

val iter : ('a -> int -> unit) -> 'a t -> unit
(** Sealed chain oldest-first, then the open block, with each node's
    timestamp. Test helper. *)

val drain :
  'a t -> free_bag:('a array -> int array -> int -> int -> unit) -> unit
(** Free everything: each non-empty block is handed to
    [free_bag data ts count stamp] wholesale — [count] nodes with their
    retire timestamps leave limbo at once; [stamp] is the bag's seal stamp
    ([min_int] never escapes — a partial open block is stamped with its
    newest timestamp on the way out) — then blanked and recycled. The
    deque remains usable. The callback must not retain [data]. *)

val scan :
  'a t ->
  age_ok:(int -> bool) ->
  keep:('a -> bool) ->
  free_bag:('a array -> int array -> int -> int -> unit) ->
  unit
(** The oldest-first walk. Sealed bags are visited while [age_ok stamp]
    holds and the walk stops at the first failure (everything behind is
    younger, by monotone stamping; an adoption seam can break the order
    and merely stops the walk early — a delay, never a leak or an unsafe
    free). Within a reclaimable bag, [keep]-survivors (hazard-protected)
    are compacted into fresh blocks re-stamped with the maximum
    contributing seal stamp and prepended before the unwalked remainder;
    the rest are freed wholesale. The open block is filtered per node: a
    node is dropped only if [age_ok] holds for its own timestamp and
    [keep] rejects it — for limbo sizes below one block this makes bag
    scans decide exactly as an element-wise filter. With an always-true
    [age_ok] every block is walked and filtered by [keep] alone (the
    hazard-pointer scan). Zero heap allocation when the block cache
    suffices. *)

val splice_into : src:'a t -> dst:'a t -> unit
(** Donate [src]'s whole contents to [dst]: the open block is sealed (if
    non-empty) and the sealed chain is spliced onto [dst]'s tail by pure
    pointer surgery — bags travel intact, O(1) in the number of nodes.
    [src] is left empty but alive. *)

(** Three epoch-indexed limbo lists, the shape QSBR/EBR/DEBRA+ and
    QSense's fast path share. *)
module Triple : sig
  type nonrec 'a t = 'a t array

  val create : 'a source -> 'a t
  val total : 'a t -> int
end
