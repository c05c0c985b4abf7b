(** A minimal JSON reader and printer, used to validate the observatory's
    exporters (Chrome trace-event files) and to write and gate
    [BENCH_RESULTS.json] without adding a dependency. It accepts standard
    JSON (RFC 8259): objects, arrays, strings with the usual escapes
    ([\uXXXX] included, decoded to UTF-8), numbers, booleans and null. It
    is a validator-grade parser — good enough for round-trip tests and the
    bench gate, not a streaming API. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in source order; duplicates kept *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an error.
    The error string carries a character offset. *)

val parse_exn : string -> t
(** Like {!parse}. Raises [Failure] with the error message. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first field named [k]; [None] on
    missing keys and non-objects. *)

val to_list : t -> t list
(** Elements of an [Arr]; [\[\]] on anything else. *)

val to_string : t -> string
(** Two-space indented serialization (ends with a newline); parses back to
    an equal value, except that non-finite numbers (nan, infinity,
    neg_infinity), which JSON cannot represent, print as [null]. Numbers
    print as integers when integral. *)

val to_line : t -> string
(** Like {!to_string} on a single line with no trailing newline: one
    record of a [.jsonl] file. *)

val set_member : string -> t -> t -> t
(** [set_member k v obj] replaces field [k] (or appends it) in an [Obj],
    preserving field order; on a non-object it returns [Obj [(k, v)]]. *)
