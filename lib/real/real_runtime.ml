(* RUNTIME over real OCaml 5 domains, on x86-64.

   Atomics are [Stdlib.Atomic]. Atomic arrays and plain rows are flat
   blocks that hold their elements inline, and an element load is an
   ordinary load. The OCaml memory model makes a racy load memory-safe
   and returns a value some store or CAS wrote, but does not give it the
   ordering of [Atomic.get]. On x86-64 nothing is lost: [Atomic.get]
   compiles to the same [mov], and TSO keeps loads in order. A port to a
   weaker architecture would need acquire loads for [aget]. A
   cross-domain plain read may observe a stale value — exactly
   the TSO store-buffer window the paper's Cadence closes with rooster
   processes and deferred reclamation. [fence] is an atomic exchange on a
   domain-local cell: on x86-64 this compiles to a [lock]-prefixed
   instruction, the same cost class as the [mfence] classic hazard
   pointers pay per traversed node. *)

type 'a atomic = 'a Atomic.t

let atomic = Atomic.make
let get = Atomic.get
let set = Atomic.set
let cas = Atomic.compare_and_set
let fetch_and_add = Atomic.fetch_and_add

(* Cache-line isolation that survives promotion. Field 0 is the cell and
   every [Atomic] operation touches field 0 only; the seven other fields
   make the block itself 64 B wide, so two padded cells are >= one line
   apart wherever the GC places them (padding with separate dummy blocks
   does not: those die at the first minor collection and the survivors
   are packed next to each other). OCaml >= 5.2 offers the same as
   [Atomic.make_contended]. *)
type 'a padded_cell = {
  mutable v : 'a;
  p1 : int;
  p2 : int;
  p3 : int;
  p4 : int;
  p5 : int;
  p6 : int;
  p7 : int;
}

let atomic_padded v : 'a Atomic.t =
  Obj.magic { v; p1 = 0; p2 = 0; p3 = 0; p4 = 0; p5 = 0; p6 = 0; p7 = 0 }

(* Atomic arrays: one block of elements, typed as an array of a variant
   with an argument so that the compiler knows it is not a float array.
   An element get then compiles to a bounds check plus one load, with no
   float-array tag test and no boxing path; OCaml 5.1's [Atomic] has no
   array form. The block is built from an immediate, so it is never a flat
   float array whatever ['a] is. *)
type elt = Elt of int
type 'a atomic_array = elt array

(* The 5.1 runtime's [caml_atomic_cas_field], write barrier included,
   exposed as a primitive (multicore-magic's [Atomic_array] uses it too).
   It performs no bounds check. *)
external cas_field : elt array -> int -> elt -> elt -> bool
  = "caml_obj_compare_and_swap"

let atomic_array n f =
  let a = Array.make n (Elt 0) in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Obj.magic (f i) : elt)
  done;
  a

let aget (a : 'a atomic_array) i : 'a = Obj.magic a.(i)

let acas (a : 'a atomic_array) i (expected : 'a) (desired : 'a) =
  if i < 0 || i >= Array.length a then invalid_arg "index out of bounds";
  cas_field a i (Obj.magic expected) (Obj.magic desired)

let rec aset a i v = if not (acas a i (aget a i) v) then aset a i v

(* A plain row: [k] slots, then a pad of one cache line (8 words), so the
   slots of the next row allocated, before or after promotion, are >= 64 B
   away. Slots are immediate: [write] is one store with no [caml_modify].
   The pad is never read; an index into it is a caller bug that the
   bounds check does not catch. *)
type plain = int array

let row_pad = 8
let plain k v = Array.make (k + row_pad) v
let read (r : plain) i = r.(i)
let write (r : plain) i x = r.(i) <- x

let fence_cell : int Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make 0)

let fence () = ignore (Atomic.exchange (Domain.DLS.get fence_cell) 1)

let pid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let register_self pid = Domain.DLS.set pid_key pid
let self () = Domain.DLS.get pid_key

let now () = int_of_float (Unix.gettimeofday () *. 1e9)
let yield () = Domain.cpu_relax ()

(* Labelled schedule points only drive the simulator's targeted schedule
   exploration; on real domains they are free. *)
let hook (_ : Qs_intf.Runtime_intf.hook) = ()

(* The coarse clock: an atomic cell refreshed by rooster domains
   ({!Qs_real.Roosters.start} calls {!publish_coarse} on every wake-up).
   Reading it is one atomic load — no syscall, no boxed-float allocation —
   which is what makes the retire path of the timestamped schemes
   allocation-free. Before any rooster has published, it falls back on the
   timestamp captured when this module was initialised; schemes that
   consume coarse timestamps (Cadence, QSense) require roosters anyway. *)
let coarse_clock = Atomic.make (now ())

let publish_coarse t = Atomic.set coarse_clock t
let now_coarse () = Atomic.get coarse_clock

(* Trace emission. The sink lives in a plain atomic; with tracing off,
   [emit] is one atomic load and a branch. Timestamps come from the coarse
   clock — [now] boxes a float via [gettimeofday], which would put an
   allocation on every traced hot-path event; the coarse clock is a single
   atomic load, and its lag (<= one rooster period, and roosters are
   running whenever the timestamped schemes are) is fine for timelines.
   [emit_pid] exists for rooster domains, which never [register_self]:
   they emit with pid [-1] and the tracer routes them to its system ring. *)
let sink : Qs_intf.Runtime_intf.sink option Atomic.t = Atomic.make None

let set_sink s = Atomic.set sink s

let emit_pid pid ev a b =
  match Atomic.get sink with
  | None -> ()
  | Some s -> s.Qs_intf.Runtime_intf.record ~pid ~time:(now_coarse ()) ~ev ~a ~b

let tracing () =
  match Atomic.get sink with None -> false | Some _ -> true

(* Neutralization on real domains is purely cooperative: OCaml gives no
   per-domain asynchronous signal delivery, so the scheme's poisoned flag
   (written by the neutralizer before this call, checked by the victim at
   protect/retire points) carries the whole signal — the signal-free
   fallback DEBRA+ describes for platforms without [pthread_kill]. This
   hook only exists for runtimes that can interrupt mid-flight operations
   (the simulator can); here the victim keeps its epoch pin until it
   acknowledges the restart itself, which is why
   [neutralize_is_preemptive] below is [false]. *)
let neutralize ~pid:_ = ()
let neutralize_is_preemptive = false

(* Nothing is ever delivered asynchronously here, so there is nothing to
   hold back. *)
let set_neutralizable _ = false

(* The sink check comes first so the pid lookup ([Domain.DLS.get]) is only
   paid when a sink is actually attached — retire/free emit on every node,
   so with tracing off this must really be one atomic load and a branch. *)
let emit ev a b =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
    s.Qs_intf.Runtime_intf.record ~pid:(self ()) ~time:(now_coarse ()) ~ev ~a
      ~b
