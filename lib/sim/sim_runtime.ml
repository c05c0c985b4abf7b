(* The RUNTIME instance backed by the deterministic simulator. Every
   operation performs an effect handled by the {!Scheduler} of the enclosing
   fiber; calling these functions outside [Scheduler.exec]/[Scheduler.spawn]
   raises [Effect.Unhandled]. Cell creation is effect-free and may happen
   anywhere. *)

type 'a atomic = 'a Cell.t
type 'a atomic_array = 'a Cell.t array
type plain = Cell.plain array

let atomic v = Cell.make v

(* The simulator models coherence per cell, so padding is a no-op. *)
let atomic_padded v = atomic v
let get c = Scheduler.op_get c
let set c v = Scheduler.op_set c v
let cas c expected desired = Scheduler.op_cas c expected desired
let fetch_and_add c n = Scheduler.op_faa c n

(* Rows are arrays of cells: an element op is the same effect on the same
   kind of cell as on a lone atomic or plain cell, so rows change no
   schedule. *)
let atomic_array n f = Array.init n (fun i -> Cell.make (f i))
let aget a i = Scheduler.op_get a.(i)
let aset a i v = Scheduler.op_set a.(i) v
let acas a i expected desired = Scheduler.op_cas a.(i) expected desired
let plain k v = Array.init k (fun _ -> Cell.make_plain v)
let read r i = Scheduler.op_read r.(i)
let write r i v = Scheduler.op_write r.(i) v
let fence () = Scheduler.op_fence ()
let now () = Scheduler.op_now ()

(* Virtual time costs one tick to read either way; the coarse clock exists
   for the real runtime, where [now] is a syscall. Lag bound: zero. *)
let now_coarse () = now ()
let self () = Scheduler.op_self ()
let yield () = Scheduler.op_yield ()

(* Zero-cost labelled schedule point: handled synchronously by the
   scheduler (no preemption, no time, no PRNG), so schedules are identical
   with or without hooks — except under the [Targeted] strategy, which may
   turn one into an injected stall. *)
let hook h = Scheduler.op_hook h

(* Trace emission, handled synchronously like [hook]: with no sink
   installed it is a branch inside the scheduler; either way it costs no
   virtual time, performs no memory effect and is not a preemption point,
   so traced and untraced runs of the same seed are identical. *)
let emit ev a b = Scheduler.op_emit ev a b

(* Always emit under simulation: [emit] is free and schedule-neutral here,
   and answering [true] keeps traced and untraced runs on one code path. *)
let tracing () = true

(* Post a DEBRA+ neutralization signal (see [Scheduler.op_neutralize]).
   Synchronous and schedule-neutral for the caller, like [emit]; the victim
   is discontinued with [Runtime_intf.Neutralized] at its next dispatch
   inside an interruptible region. *)
let neutralize ~pid = Scheduler.op_neutralize pid

(* The discontinuation above lands before the victim's next shared-memory
   access (its next effect), so a neutralizer may safely revoke the
   victim's protection on its behalf — the full DEBRA+ signal model. *)
let neutralize_is_preemptive = true

(* Hold back or allow delivery to the caller: the same meta-level flag the
   worker loops set around each operation. *)
let set_neutralizable v = Scheduler.op_set_neutralizable v

(* Simulator extras, not part of RUNTIME. *)

let sleep_until target = Effect.perform (Scheduler.E_sleep_until target)
(** Block the calling process until its core clock reaches [target]; used
    for delay injection. *)

let charge n = Scheduler.op_charge n
(** Account [n] extra virtual ticks of application work to the caller. *)
