(** Bucket-edge machinery shared by the online log-bucketed
    {!Qs_obs.Latency} histograms and {!Stats.percentile} — one home for
    edge-label formatting and rank arithmetic so the two presentations of
    a distribution cannot drift apart. *)

val distinct_labels : float array -> string array
(** Render bucket edges as decimal labels, right-aligned to a common
    width, using the fewest decimals (seeded from the significant digits
    of the smallest adjacent gap, at most 9) that keep all adjacent edge
    labels distinct — so narrow ranges do not collapse to identical labels
    and wide ranges are not padded with noise digits. *)

val ascii_rows : labels:string array -> counts:int array -> width:int -> string
(** One text row per bucket: [label | ###### count], bars scaled so the
    fullest bucket spans [width] characters. [labels] and [counts] must
    have equal lengths. *)

val interp_rank : n:int -> p:float -> float
(** The closest-ranks interpolation position of percentile [p] among [n]
    sorted samples: [p / 100 * (n - 1)]. Raises [Invalid_argument] when
    [p] is outside [\[0, 100\]]. *)

val cumulative_index : int array -> p:float -> int
(** Index of the bucket containing percentile [p] of the counts' total:
    the first bucket at which the cumulative count reaches the 1-based
    rank [max 1 (ceil (p / 100 * total))]. Returns [0] when the total is
    0; raises
    [Invalid_argument] when [p] is out of range. *)
