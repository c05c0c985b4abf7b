(* Fibonacci (multiplicative) hashing on OCaml's tagged 63-bit ints.

   Multiplying by an odd constant close to 2^w / phi spreads consecutive
   keys across the hash space, but the well-mixed bits of the product are
   the HIGH bits: the low bits of [key * m] depend only on the low bits of
   [key] (for sequential keys the bottom bit of the product just alternates
   with the bottom bit of the key). Reducing with [mod 2^k] therefore keeps
   exactly the wrong end of the word. Tables are therefore power-of-two
   sized and shift the top [k] bits down instead.

   The constant is floor(2^64 / phi) / 4 = 2850178704830799621 — the
   64-bit golden-ratio multiplier scaled into OCaml's immediate range. It
   is odd, so the map [key -> key * m mod 2^62] is a bijection. *)

let multiplier = 2850178704830799621

(* [max_int] = 2^62 - 1: the product truncated to 62 usable bits. *)
let hash_bits = 62

let[@inline] hash key = key * multiplier land max_int

(* [hash_bits - k] when [n] = 2^k, so [hash key lsr shift] is a uniform
   index in [0, n). *)
let shift_for n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Fib_hash.shift_for: not a positive power of two";
  let rec log2 k m = if m > 1 then log2 (k + 1) (m lsr 1) else k in
  hash_bits - log2 0 n
