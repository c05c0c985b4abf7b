(* Growable vector backing the arena's per-process free lists.

   A [node list] free list would cons a cell on every free; this vector
   makes [push] an amortised allocation-free array store and [pop] a LIFO
   read, so the most-recently-freed (cache-warm) node is reused first.
   Vacated slots are blanked with [dummy] so the vector never keeps freed
   nodes alive for the GC. Capacity only grows (doubling). Not
   thread-safe: every vector is owned by exactly one process. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) dummy =
  { data = Array.make (max 1 capacity) dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let data = Array.make (2 * Array.length t.data) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x
