(* Fibonacci (multiplicative) hashing on OCaml's tagged 63-bit ints.

   Multiplying by an odd constant close to 2^w / phi spreads consecutive
   keys across the hash space, but the well-mixed bits of the product are
   the HIGH bits: the low bits of [key * m] depend only on the low bits of
   [key] (for sequential keys the bottom bit of the product just alternates
   with the bottom bit of the key). Reducing with [mod 2^k] therefore keeps
   exactly the wrong end of the word. Power-of-two tables must shift the
   top [k] bits down instead; [mod] remains correct (if slightly less
   uniform) for arbitrary table sizes.

   The constant is floor(2^64 / phi) / 4 = 2850178704830799621 — the
   64-bit golden-ratio multiplier scaled into OCaml's immediate range. It
   is odd, so the map [key -> key * m mod 2^62] is a bijection. *)

let multiplier = 2850178704830799621

(* [max_int] = 2^62 - 1: the product truncated to 62 usable bits. *)
let hash_bits = 62

let[@inline] hash key = key * multiplier land max_int

(* [Some (hash_bits - k)] when [n] = 2^k, so [hash key lsr shift] is a
   uniform index in [0, n); [None] for non-power-of-two sizes ([mod]
   fallback). *)
let shift_for n =
  if n <= 0 || n land (n - 1) <> 0 then None
  else begin
    let k = ref 0 in
    let m = ref n in
    while !m > 1 do
      incr k;
      m := !m lsr 1
    done;
    Some (hash_bits - !k)
  end
