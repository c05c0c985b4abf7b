(** Rendering of experiment results as aligned ASCII tables and CSV.

    The harness reports every reproduced figure/table as one of these. *)

type t
(** A table under construction: a header row plus data rows of equal width. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] if the width differs from the
    header. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label xs] appends [label] followed by [xs] formatted with
    [%.3f]. *)

val to_ascii : t -> string
(** Render with aligned columns, a separator under the header. *)

val to_csv : t -> string
(** Render as RFC-4180-ish CSV (commas, quoting only when needed). *)

val print : t -> unit
(** [to_ascii] to stdout, followed by a newline. *)

val save_csv : t -> string -> unit
(** Write the CSV rendering to a file. *)

val sparkline : float array -> string
(** Renders a series as a one-line unicode sparkline — used for the
    throughput-over-time figures on a terminal. *)
