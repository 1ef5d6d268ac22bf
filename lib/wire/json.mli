(** Minimal JSON values: the one codec for every JSON document the
    repository reads or writes.

    The analysis service ([Server]), the admission daemon's journal and
    snapshots, the CLI's [--format json], [--metrics] snapshots
    ([Obs.Snapshot]) and [results/BENCH_core.json] share one wire
    format; this module is its common vocabulary: a small value type, a
    canonical printer, and a parser for the subset the schema uses
    (null, booleans, exact integers, strings, arrays, objects — no
    floats: every numeric quantity in the schema is either an integer
    or an exact decimal/rational carried as a string).

    Canonical form: {!to_string} emits object keys sorted by name with
    no insignificant whitespace, so two semantically equal values have
    equal bytes and snapshots can be compared with [cmp].  {!of_string}
    accepts arbitrary key order and whitespace. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list  (** printed key-sorted; parsed in input order *)

val to_string : t -> string
(** Canonical, single-line: keys sorted, separators [","] / [":"].
    An object whose keys are already in order is printed without a
    sort, so builders on hot paths emit their fields in key order. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (the whole string).  Number literals with a
    fraction or exponent are rejected — the schema never emits them —
    as is anything after the value.  Errors carry a character offset. *)

(* Accessors for decoding: each returns [Error] naming the field and
   the expected shape, so protocol errors are self-explanatory. *)

val member : string -> t -> t option
(** [member k (Obj ...)] — [None] when absent or not an object. *)

val to_int : ctx:string -> t -> (int, string) result
val to_str : ctx:string -> t -> (string, string) result
val to_list : ctx:string -> t -> (t list, string) result
