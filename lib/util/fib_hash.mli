(** Fibonacci (multiplicative) hashing on native ints.

    The well-mixed bits of a multiplicative hash are the {e high} bits of
    the product, so power-of-two tables must take the top [k] bits via a
    right shift — reducing with [mod 2^k] keeps the poorly-mixed low end
    (for sequential keys, barely better than the identity). *)

val hash_bits : int
(** Number of usable bits in {!hash}'s result (62). *)

val hash : int -> int
(** [hash key] = [key] times floor(2^64 / phi) / 4 (odd, within OCaml's
    immediate range), truncated to {!hash_bits} bits.
    A bijection on the 62-bit space; allocation-free. *)

val shift_for : int -> int
(** [shift_for n] is [hash_bits - k] when [n = 2^k] — the shift that turns
    {!hash} into a uniform index in [0, n) as [hash key lsr shift].
    Raises [Invalid_argument] unless [n] is a positive power of two. *)
