(* SplitMix-style generator on native ints. The original implementation
   used boxed [int64] arithmetic: every draw allocated a handful of boxed
   words, and the simulator draws from a PRNG on almost every scheduled
   step (cost jitter, stall rolls, fair-tie coins), which made the PRNG a
   measurable slice of the allocation profile of schedule exploration.
   Native [int] arithmetic wraps modulo 2^63 on 64-bit platforms, which is
   exactly the truncation SplitMix tolerates: the constants below are the
   SplitMix64 constants with their top bits dropped to fit OCaml's 63-bit
   immediates. Draws allocate nothing. *)

type t = { mutable state : int }

(* 0x9E3779B97F4A7C15 (the 64-bit golden gamma) truncated to 61 bits so the
   literal is a valid OCaml immediate; it stays odd, which is the property
   the Weyl sequence needs. *)
let golden_gamma = 0x1E3779B97F4A7C15

let mix_a = 0x2F58476D1CE4E5B9 (* 0xBF58476D1CE4E5B9 truncated, odd *)
let mix_b = 0x14D049BB133111EB (* 0x94D049BB133111EB truncated, odd *)

let create ~seed = { state = seed }

let[@inline] next t =
  t.state <- t.state + golden_gamma;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * mix_a in
  let z = (z lxor (z lsr 27)) * mix_b in
  z lxor (z lsr 31)

let next_int64 t = Int64.of_int (next t)

let split t = { state = next t }

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next t land max_int mod bound

let float t bound = bound *. (float_of_int (next t land max_int) /. float_of_int max_int)

let[@inline] bool t = next t land 1 = 1

let percent t = int t 100

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
