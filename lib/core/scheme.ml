(** Runtime selection of a reclamation scheme.

    The experiment harness and the benchmarks pick schemes by name; this
    module maps the name to the right functor application as a first-class
    module. *)

type kind =
  | None_  (** leaky baseline — the paper's "None" *)
  | Hp  (** classic hazard pointers, fenced *)
  | Unsafe_hp  (** hazard pointers without the fence — broken, demo only *)
  | Qsbr
  | Ebr  (** per-operation epochs (Fraser), §8's epoch-based baseline *)
  | Debra_plus  (** EBR + neutralization (Brown) — rival robust scheme *)
  | Hyaline  (** reference-counted batches, no scan phase — rival scheme *)
  | Cadence
  | Qsense
  | Naive_hybrid
      (** the rejected §4.1 hybrid (HPs only in fallback mode) — broken,
          demo only *)

let all =
  [ None_; Hp; Unsafe_hp; Qsbr; Ebr; Debra_plus; Hyaline; Cadence; Qsense;
    Naive_hybrid ]

let to_string = function
  | None_ -> "none"
  | Hp -> "hp"
  | Unsafe_hp -> "unsafe-hp"
  | Qsbr -> "qsbr"
  | Ebr -> "ebr"
  | Debra_plus -> "debra-plus"
  | Hyaline -> "hyaline"
  | Cadence -> "cadence"
  | Qsense -> "qsense"
  | Naive_hybrid -> "naive-hybrid"

let of_string = function
  | "none" -> Some None_
  | "hp" -> Some Hp
  | "unsafe-hp" -> Some Unsafe_hp
  | "qsbr" -> Some Qsbr
  | "ebr" -> Some Ebr
  | "debra-plus" -> Some Debra_plus
  | "hyaline" -> Some Hyaline
  | "cadence" -> Some Cadence
  | "qsense" -> Some Qsense
  | "naive-hybrid" -> Some Naive_hybrid
  | _ -> None

(** Whether the scheme needs rooster processes running for safety. *)
let needs_roosters = function
  | Cadence | Qsense | Naive_hybrid -> true
  | None_ | Hp | Unsafe_hp | Qsbr | Ebr | Debra_plus | Hyaline -> false

module Dispatch (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type s = (module Smr_intf.S with type node = N.t)

  let make : kind -> s = function
    | None_ -> (module Leaky.Make (R) (N))
    | Hp -> (module Hazard_pointers.Make (R) (N))
    | Unsafe_hp -> (module Unsafe_hp.Make (R) (N))
    | Qsbr -> (module Qsbr.Make (R) (N))
    | Ebr -> (module Ebr.Make (R) (N))
    | Debra_plus -> (module Debra_plus.Make (R) (N))
    | Hyaline -> (module Hyaline.Make (R) (N))
    | Cadence -> (module Cadence.Make (R) (N))
    | Qsense -> (module Qsense.Make (R) (N))
    | Naive_hybrid -> (module Naive_hybrid.Make (R) (N))
end
