(** Offline metrics derived from a {!Tracer} trace — the reclamation-lag
    and memory-over-time profiles the SMR literature evaluates schemes by
    (Brown, arXiv:1712.01044; Hyaline, arXiv:1905.07903), computed from
    our own runs. All functions take the merged timeline produced by
    {!Tracer.to_array} and allocate freely: they run after the clock
    stops. *)

type entry = Tracer.entry

(** {1 Age at free}

    How long each node spent in limbo. Under Cadence the minimum is the
    paper's [T + epsilon] floor — the age check [now - ts >= T + eps] is
    exactly what [Ev_free]'s [b] payload records when the scheme had both
    timestamps in hand. *)

val ages_at_free : entry array -> int array
(** One sample per [Ev_free], in timeline order. Prefers the event's own
    [b] payload (exact: the scheme's [now - ts]); falls back on joining
    against the node id's most recent [Ev_retire] when [b < 0] (schemes
    whose reclamation test is not age-based), and skips frees whose retire
    fell out of the ring. *)

val age_histogram : entry array -> Latency.t option
(** Log-bucketed histogram over {!ages_at_free} ([None] when no age is
    recoverable). *)

(** {1 Limbo depth over time} *)

val limbo_series : entry array -> pid:int -> (int * int) array
(** [(time, depth)] samples of process [pid]'s limbo population: [+1] per
    retire, [-1] per free, resynchronised to [Ev_retire]'s [b] payload
    (depth after push) whenever present — so a truncated ring yields a
    correct tail rather than a drifting integral. Each event yields one
    sample. *)

val max_limbo : entry array -> pid:int -> int

(** {1 Fallback episodes (QSense)} *)

type episode = {
  ep_pid : int;  (** the process that {e entered} fallback *)
  enter_time : int;
  exit_time : int option;  (** [None]: still in fallback at trace end *)
  limbo_at_enter : int;
  dwell : int option;  (** the scheme's own dwell ([Ev_fallback_exit.a]) *)
}

val fallback_episodes : entry array -> episode list
(** Enter/exit pairs in enter order. The hybrid schemes' mode is global to
    the scheme instance, so pairing is global in timeline order: the exit
    may be emitted by a different process than the enter ([ep_pid] is the
    enterer). An unmatched enter at the end of the trace yields an open
    episode. *)

(** {1 Spike attribution}

    Joins per-op latency outliers (the {!Latency.recorder}'s top-K
    buffers) against the event stream to name the reclamation activity
    concurrent with each tail spike — the empirical counterpart of the
    paper's fast-path/robust-path trade-off. *)

type cause =
  | Fallback  (** a global QSense fallback episode overlapped the op *)
  | Neutralize  (** the op's process was neutralized (DEBRA+) mid-op *)
  | Scan  (** the op's own process ran a scan during the op *)
  | Epoch  (** the process adopted an epoch and bulk-freed ([Ev_quiesce b=1]) *)
  | Churn  (** the process unregistered or adopted orphans mid-op *)
  | Bag_seal  (** a limbo bag sealed on the process mid-op *)
  | Unattributed  (** no recorded reclamation activity overlapped *)

val cause_name : cause -> string

type attribution = {
  attr_threshold : int;  (** minimum duration considered a spike *)
  attr_total : int;  (** outliers at/above the threshold *)
  attr_counts : (cause * int) list;  (** every cause, priority order *)
}

val attributed_pct : attribution -> float
(** Share (0..100) of spikes with a named cause. 0 when no spikes. *)

val attribute_spikes :
  entry array ->
  outliers:Latency.outlier list ->
  threshold:int ->
  attribution
(** Classify each outlier with [o_dur >= threshold] by the highest-priority
    cause whose span or instant intersects the op window
    [\[o_start, o_start + o_dur\]]. Fallback episodes are global spans;
    scans are same-pid spans; the rest are same-pid instants (neutralize
    matches the {e victim} pid). Priority: fallback > neutralize > scan >
    epoch > churn > bag seal — a fallback dwell subsumes the scans it
    contains. The usual [threshold] is the lower edge of the merged
    histogram's p999 bucket:
    [Latency.lower_edge (Latency.percentile_bucket merged 99.9)]. *)

(** {1 Epoch lag} *)

val epoch_lags : entry array -> int array
(** For each [Ev_epoch_advance], the delay until each process's first
    subsequent adopting [Ev_quiesce] ([b = 1]) — one sample per (advance,
    adopting process) pair observed before the next advance. The shape of
    this distribution is the reclamation-lag profile of epoch-based
    schemes. *)

(** {1 Counters} *)

val count : entry array -> Qs_intf.Runtime_intf.event -> int
val frees_total : entry array -> int
val retires_total : entry array -> int

val unregisters_total : entry array -> int
(** Membership departures ([Ev_unregister]) in the trace. *)

val adoptions_total : entry array -> int
(** Orphan-adoption events ([Ev_adopt]) in the trace. *)

val adopted_nodes_total : entry array -> int
(** Total orphan nodes spliced into survivors' limbo lists, summing
    [Ev_adopt]'s [a] payload. *)
