(* The real runtime with a counter on every link read, every fence and
   every hazard-slot store. A link read is an atomic-array element read
   (the skip list's towers) or an atomic read (the list's [next]);
   classic HP itself reads neither. Under classic HP a publish is
   one fence and one store, and nothing else an operation runs fences,
   so the fence count is the publish count; the other stores are the
   clear's. *)

include Qs_real.Real_runtime

let link_reads = ref 0
let fences = ref 0
let writes = ref 0

let get a =
  incr link_reads;
  get a

let aget a i =
  incr link_reads;
  aget a i

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

(* Publishes and hazard-slot stores of [f ()]. *)
let stored f =
  let f0 = !fences and w0 = !writes in
  f ();
  (!fences - f0, !writes - w0)
