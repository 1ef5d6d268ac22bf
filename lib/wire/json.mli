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

val add : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val add_string : Buffer.t -> string -> unit
(** [add buf (String s)]: [s] quoted and escaped. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (the whole string).  Number literals with a
    fraction or exponent are rejected — the schema never emits them —
    as is anything after the value.  Errors carry a character offset. *)

(** {2 Decoding without a tree}

    The lexer {!of_string} runs on, for a decoder that reads a document
    straight into its own representation.  Such a decoder accepts
    exactly the texts {!of_string} accepts, and fails at the same
    offset with the same message, as long as it consumes every value it
    is handed: a value it does not want goes to {!value}. *)

type cursor

val decode : string -> (cursor -> 'a) -> ('a, string) result
(** [decode text f] runs [f] on a cursor at the start of [text], then
    requires nothing but whitespace after what [f] consumed.  A syntax
    error anywhere is [Error "at offset N: why"], as in {!of_string},
    whatever [f] had read before it. *)

val peek : cursor -> char
(** The first byte of the next value, after whitespace; ['\000'] at
    the end of the text.  It tells which reader below applies. *)

val value : cursor -> t
(** Read one value of any kind. *)

val string : cursor -> string
(** Read a string value, escapes decoded. *)

val int : cursor -> int
(** Read an integer value. *)

val fold_members : intern:string list -> cursor -> ('a -> string -> 'a) -> 'a -> 'a
(** Read an object: [f acc key] is called for each member, in text
    order, with the cursor at the member's value, and must consume that
    value.  A key without escapes that equals an [intern] entry is
    passed as that entry, not copied. *)

val fold_items : cursor -> ('a -> 'a) -> 'a -> 'a
(** Read an array: [f acc] is called for each element and must consume
    it. *)

(* Accessors for decoding: each returns [Error] naming the field and
   the expected shape, so protocol errors are self-explanatory. *)

val member : string -> t -> t option
(** [member k (Obj ...)] — [None] when absent or not an object. *)

val to_int : ctx:string -> t -> (int, string) result
val to_str : ctx:string -> t -> (string, string) result
val to_list : ctx:string -> t -> (t list, string) result
