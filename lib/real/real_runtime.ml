(* RUNTIME over real OCaml 5 domains.

   Atomics are [Stdlib.Atomic]. Plain cells are single mutable [int]
   fields; a cross-domain plain read is racy but memory-safe under the
   OCaml memory model and may observe a stale value — exactly the TSO
   store-buffer window the paper's Cadence closes with rooster processes
   and deferred reclamation. [fence] is an atomic exchange on a
   domain-local cell: on x86-64 this compiles to a [lock]-prefixed
   instruction, the same cost class as the [mfence] classic hazard
   pointers pay per traversed node. *)

type 'a atomic = 'a Atomic.t

let atomic = Atomic.make
let get = Atomic.get
let set = Atomic.set
let cas = Atomic.compare_and_set
let fetch_and_add = Atomic.fetch_and_add

(* An immediate field: [write] is one store with no [caml_modify]. *)
type plain = { mutable v : int }

let plain v = { v }
let read c = c.v
let write c x = c.v <- x

(* Best-effort false-sharing isolation. OCaml gives no control over object
   placement, but minor-heap allocation is sequential: surrounding a small
   cell with dummy blocks puts >= one cache line (64 B = 8 words) of slack
   between it and the cells allocated before/after it, so per-process epoch
   slots, presence flags and hazard-pointer rows allocated in a loop do not
   share lines. [Sys.opaque_identity] keeps the padding allocations from
   being optimised away; the pads themselves become garbage immediately,
   costing nothing after the next minor collection beyond the (one-time,
   creation-path) bump allocations. *)
let pad () = ignore (Sys.opaque_identity (Array.make 8 0))

let atomic_padded v =
  pad ();
  let c = Atomic.make v in
  pad ();
  c

let plain_padded v =
  pad ();
  let c = { v } in
  pad ();
  c

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
