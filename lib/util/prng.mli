(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment and every simulator schedule is reproducible from a single
    seed. The generator is a SplitMix variant on native 63-bit ints — fast,
    allocation-free per draw (the simulator draws on almost every scheduled
    step), and supporting cheap splitting into independent streams (one per
    simulated process). *)

type t = { mutable state : int }
(** A mutable PRNG state. Not thread-safe; use one [t] per process/domain.
    The representation is exposed so that the simulator's step accounting —
    which draws on every scheduled step — can inline the SplitMix advance
    without a cross-module call (dune's dev profile compiles with
    [-opaque], so [next] is not inlined across compilation units). Treat
    it as abstract everywhere else; the mixing constants live in
    {!Scheduler} as well and the stream-identity tests pin both. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined entirely by [seed]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of the remainder of [t]'s stream. Used to derive per-process
    streams from an experiment master seed. *)

val next : t -> int
(** Next raw 63-bit output (may be negative: all 63 bits are random).
    Allocation-free. *)

val next_int64 : t -> int64
(** {!next} as an [int64] (boxed); kept for stream-identity tests. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val percent : t -> int
(** [percent t] is uniform in [\[0, 100)], convenient for operation mixes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
