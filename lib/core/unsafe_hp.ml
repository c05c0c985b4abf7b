(* Hazard pointers WITHOUT the publication fence — deliberately broken under
   TSO. This is the naive "just skip the barrier" optimisation the paper's
   §4.1 (Algorithm 2) shows to be incorrect: the hazard-pointer store can be
   delayed past the re-validation load, letting a concurrent reclaimer free
   a node the reader is about to use. The test suite demonstrates the
   resulting use-after-free in the simulator; Cadence is the sound way to
   drop the fence. Never use this scheme for real work. *)

module Make = Hazard_pointers.Make_gen (struct
  let scheme_name = "unsafe-hp"
  let fenced = false
  let deferred = false
end)
