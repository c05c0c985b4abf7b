(** Trace exporters.

    - {!chrome}: Chrome trace-event JSON ([{"traceEvents": [...]}]) —
      load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
      Instant events ("i") for retire/free/quiesce/evict/rooster-wake,
      duration pairs ("B"/"E") for scans (per process lane) and fallback
      episodes (on the system lane, since the hybrid schemes' mode is
      global and the exiting process need not be the entering one;
      unmatched opens are closed at trace end, and a close whose open
      wrapped out of the ring gets a synthetic span start at the first
      retained timestamp, so the file always validates even for traces
      that begin mid-episode), and counter events ("C") tracking each
      process's limbo depth.
    - {!csv}: flat [time,pid,event,a,b] time series for
      spreadsheet/gnuplot post-processing.

    Timestamps: the trace-event format wants microseconds. [ts_div]
    divides raw trace timestamps (default 1 — simulator virtual ticks map
    1:1 to "µs", which Perfetto renders fine; pass 1000 for real-runtime
    nanoseconds). *)

val chrome : ?ts_div:int -> Tracer.t -> string
(** The JSON document as a string. *)

val save_chrome : ?ts_div:int -> Tracer.t -> string -> unit
(** Write to a file. Conventional suffix: [.trace.json]. *)

val csv : Tracer.t -> string
(** Header [time,pid,event,a,b], one row per retained event, merged
    timeline order. Raw (undivided) timestamps. *)

val save_csv : Tracer.t -> string -> unit
