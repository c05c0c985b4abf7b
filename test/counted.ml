(* The real runtime with a counter on every link read, every CAS, every
   fence and every hazard-slot store. A link read is an atomic-array
   element read (the skip list's towers) or an atomic read (the list's
   [next]); classic HP itself reads neither and makes no CAS, so every
   CAS counted is the structure's. Under classic HP a publish is one
   fence and one store, and nothing else an operation runs fences, so the
   fence count is the publish count; the other stores are the clear's.
   [cut_after] stops an operation right after one of its CASes, leaving
   what a process that stalls there forever leaves behind. *)

include Qs_real.Real_runtime

let link_reads = ref 0
let fences = ref 0
let writes = ref 0
let cases = ref 0

exception Cut

(* the value of [cases] at which the CAS raises [Cut] *)
let cut = ref max_int

let get a =
  incr link_reads;
  get a

let aget a i =
  incr link_reads;
  aget a i

let cas a expected desired =
  incr cases;
  let ok = cas a expected desired in
  if !cases = !cut then raise Cut;
  ok

let acas a i expected desired =
  incr cases;
  let ok = acas a i expected desired in
  if !cases = !cut then raise Cut;
  ok

let fence () =
  incr fences;
  fence ()

let write r i x =
  incr writes;
  write r i x

(* Link reads and publishes of [f ()]. *)
let counted f =
  let r0 = !link_reads and f0 = !fences in
  f ();
  (!link_reads - r0, !fences - f0)

(* Link reads, publishes and CASes of [f ()]. *)
let counted_cas f =
  let c0 = !cases in
  let reads, publishes = counted f in
  (reads, publishes, !cases - c0)

(* Publishes and hazard-slot stores of [f ()]. *)
let stored f =
  let f0 = !fences and w0 = !writes in
  f ();
  (!fences - f0, !writes - w0)

(* Runs [f ()] and abandons it right after its [n]th CAS has taken
   effect. *)
let cut_after n f =
  cut := !cases + n;
  match f () with
  | () ->
    cut := max_int;
    failwith "Counted.cut_after: fewer CASes than the cut"
  | exception Cut -> cut := max_int
