(** Growable vector backing {!Arena}'s per-process free lists. [push] is an
    amortised allocation-free array store and [pop] is LIFO, so a recycling
    workload allocates nothing once capacity has been reached. Capacity
    doubles on demand and never shrinks. Single-owner: not thread-safe. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create ?capacity dummy] — [dummy] blanks vacated slots so the vector
    never keeps dropped elements alive for the GC. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Amortised O(1), allocation-free once capacity has been reached. *)

val pop : 'a t -> 'a
(** Remove and return the last element (LIFO), blanking its slot.
    Allocation-free. Raises [Invalid_argument] on an empty vector. *)
