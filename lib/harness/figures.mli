(** Reproduction drivers for every figure of the paper's evaluation (§7)
    plus the ablations listed in DESIGN.md. Each returns
    {!Qs_util.Table.t} rows matching the corresponding plot's series; see
    EXPERIMENTS.md for recorded paper-vs-measured results. *)

type scale =
  | Quick  (** scaled-down structure sizes; seconds *)
  | Full  (** the paper's sizes (BST scaled 10x down); minutes *)

val range_of : scale -> Cset.kind -> int
(** A structure's key range at a scale: at [Quick], list 512, skip list
    and hash table 4,096, BST 16,384. *)

val fig3 :
  scale:scale -> seed:int -> Qs_util.Table.t * (Qs_smr.Scheme.kind * float list) list
(** Figure 3: linked list, 10% updates, None / QSense / HP. *)

val fig5_top :
  scale:scale ->
  seed:int ->
  ds:Cset.kind ->
  Qs_util.Table.t * (Qs_smr.Scheme.kind * float list) list
(** Figure 5 top row: 50% updates, None / QSBR / QSense / HP. *)

val fig5_bottom :
  scale:scale ->
  seed:int ->
  ds:Cset.kind ->
  Qs_util.Table.t * (Qs_smr.Scheme.kind * Sim_exp.result) list
(** Figure 5 bottom row: 8 processes under bounded memory, one delayed in
    [10,20), [30,40), ...; per-second throughput series. QSBR's run ends in
    the modelled out-of-memory failure; QSense switches paths and survives. *)

val overheads :
  scale:scale ->
  seed:int ->
  Qs_util.Table.t
  * (Cset.kind * float) list
  * (Qs_smr.Scheme.kind * float list) list
(** The §7.3 text numbers: per-structure throughput at 8 cores, average
    overhead vs the leaky baseline, speedup vs HP. *)

val ablation_rooster : seed:int -> Qs_util.Table.t
(** Rooster interval T sweep on Cadence: throughput vs held memory. *)

val ablation_quiescence : seed:int -> Qs_util.Table.t
(** Quiescence threshold Q sweep on QSBR. *)

val ablation_switch_threshold : seed:int -> Qs_util.Table.t
(** Fallback threshold C sweep on QSense under periodic delays. *)

val ablation_epsilon : seed:int -> Qs_util.Table.t
(** Epsilon vs rooster oversleep on Cadence; the undersized-epsilon row
    exhibits use-after-free (the §5.1 timing assumption is load-bearing). *)

val ablation_update_mix : seed:int -> Qs_util.Table.t
(** §3.2's claim: the hazard-pointer fence tax is highest on read-only
    workloads and shrinks as the update share (already paying for CAS)
    grows. *)

val latency_table : seed:int -> Qs_util.Table.t
(** Extra analysis: per-operation latency distribution per scheme — hazard
    pointers tax the median, epoch/limbo schemes spike the tail. *)

val sparklines : (Qs_smr.Scheme.kind * Sim_exp.result) list -> string
(** One line per scheme: its throughput series as a sparkline, plus the
    out-of-memory point and backlog when the run failed. *)

val all : scale:scale -> seed:int -> (string * (unit -> string)) list
(** Every section of the evaluation in [repro all] order: a title and a
    thunk rendering the text printed under it. Rendering is deferred so a
    caller can run, time or digest the sections one at a time. *)
