(* Cadence (§5.1): hazard pointers without the per-node publication fence,
   made safe by rooster processes plus T + ε deferred reclamation — the
   hazard engine ({!Hazard_pointers}) unfenced and deferred. Usable
   stand-alone (this module) and as QSense's fallback path ({!Qsense}). *)

module Make = Hazard_pointers.Make_gen (struct
  let scheme_name = "cadence"
  let fenced = false
  let deferred = true
end)
