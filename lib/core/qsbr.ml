(* Quiescent-state based reclamation (§3.1), the paper's fast path: the
   epoch engine ({!Ebr}) announcing a quiescent state every Q operations,
   with no neutralization.

   Fast (no per-node work at all: [assign_hp] is a no-op) but blocking:
   one delayed process freezes the global epoch and with it all
   reclamation — the failure mode QSense's fallback path exists to
   survive. *)

module Make = Ebr.Make_gen (struct
  let scheme_name = "qsbr"
  let per_operation = false
  let neutralize = false
end)
