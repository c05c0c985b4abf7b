(** The {!Qs_intf.Runtime_intf.RUNTIME} instance over real OCaml 5 domains,
    on x86-64.

    Atomics map to [Stdlib.Atomic]; [atomic_padded] cells are one cache
    line wide. Atomic arrays are one block with the elements inline: an
    element read is a plain load, which on x86-64 is the same [mov] as
    [Atomic.get], and a CAS is the runtime's [caml_atomic_cas_field] (with
    the write barrier). Plain rows are [int] arrays padded by one cache
    line at the end, read racily but memory-safely (stale reads possible,
    as under hardware TSO; a write is one store with no GC write barrier);
    [fence] is an atomic exchange — the cost analogue of x86 [mfence];
    [now] is wall-clock nanoseconds. *)

include Qs_intf.Runtime_intf.RUNTIME

val register_self : int -> unit
(** Must be called once by each worker domain before it uses the library,
    with its process id in [0, n_processes). {!self} returns this id. *)

val publish_coarse : int -> unit
(** Refresh the coarse clock read by {!now_coarse}. Called by
    {!Qs_real.Roosters} on every rooster wake-up; tests may call it
    directly. Monotonicity is the publisher's responsibility. *)

val set_sink : Qs_intf.Runtime_intf.sink option -> unit
(** Install (or remove) the global trace sink fed by {!emit}. With no sink
    installed, {!emit} is one atomic load and a branch. Event timestamps
    come from the coarse clock ({!now_coarse}) so that traced events never
    allocate; run roosters for freshness. *)

val emit_pid : int -> Qs_intf.Runtime_intf.event -> int -> int -> unit
(** Like {!emit}, but with an explicit emitter id — used by rooster
    domains, which are not registered worker processes and emit with pid
    [-1] (routed to the tracer's system ring). *)
