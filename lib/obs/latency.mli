(** Allocation-free online log-bucketed latency histograms.

    HDR-style geometry: values below 32 get unit-width buckets; above
    that, each power-of-two range is split into 32 sub-buckets, so the
    relative quantization error is bounded by ~3% everywhere while the
    whole table stays a flat 1152-slot int array. Recording is a handful
    of integer operations and one array increment — {!record} allocates
    exactly 0 minor words, pinned by tests and the bench zero-alloc guard.

    Units are whatever the caller measures in: simulator ticks on the
    virtual-time runtime, coarse-clock ns on the real one. A histogram is
    single-writer (one per {process × op-kind}); {!merge_into} combines
    per-process tables for whole-run percentiles.

    A {!recorder} bundles the per-{pid × kind} histograms for one
    experiment together with per-pid top-K outlier buffers (flat int
    arrays, min-replace, no allocation) that feed spike attribution in
    {!Metrics.attribute_spikes}. *)

type t

val n_buckets : int
(** Number of buckets in a histogram (1152). *)

val create : unit -> t

val reset : t -> unit

val bucket_of : int -> int
(** [bucket_of v] is the bucket index of value [v] (negative values clamp
    to bucket 0, values ≥ 2{^40} clamp to the last bucket). Pure integer
    arithmetic; allocates nothing. *)

val lower_edge : int -> int
(** Inclusive lower edge of bucket [i]. [bucket_of (lower_edge i) = i]
    for every valid [i]. *)

val record : t -> int -> unit
(** Count one sample. Exactly 0 minor words allocated. *)

val count : t -> int
(** Total samples recorded. *)

val max_value : t -> int
(** Largest sample recorded so far (0 when empty). *)

val sum : t -> int
(** Sum of all samples (for means and Prometheus [_sum]). *)

val bucket_counts : t -> int array
(** Copy of the raw bucket counts. *)

val merge_into : dst:t -> t -> unit
(** Add [src]'s counts (and max) into [dst]. *)

val percentile : t -> float -> int
(** [percentile t p] is an upper bound for the [p]-th percentile sample:
    the upper edge of the bucket containing rank [ceil (p/100 * count)],
    clamped to {!max_value}. Returns 0 on an empty histogram; raises
    [Invalid_argument] if [p] is outside [\[0, 100\]]. *)

val percentile_bucket : t -> float -> int
(** Index of the bucket containing the [p]-th percentile sample. *)

val to_ascii : t -> width:int -> string
(** Non-empty buckets as [edge | ### count] rows (for debugging). *)

(** {1 Experiment recorder} *)

type recorder
(** Per-{pid × op-kind} histograms plus per-pid top-K outlier rings for
    one experiment run. *)

val recorder : n_processes:int -> n_kinds:int -> ?top_k:int -> unit -> recorder

val observe : recorder -> pid:int -> kind:int -> start:int -> dur:int -> unit
(** Record one operation: [dur] into the {pid × kind} histogram, and
    (start, dur, kind) into pid's top-K buffer if it beats the smallest
    entry. Exactly 0 minor words allocated. *)

val merged : recorder -> t
(** Fresh histogram holding every process × kind merged. *)

val merged_kind : recorder -> kind:int -> t
(** Fresh histogram merging one op-kind across all processes. *)

type outlier = { o_pid : int; o_kind : int; o_start : int; o_dur : int }

val outliers : recorder -> outlier list
(** All retained top-K entries across processes, slowest first. *)

val n_processes : recorder -> int
val n_kinds : recorder -> int
