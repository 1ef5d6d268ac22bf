(** Top-level [check-src] driver: input resolution, aggregation over
    many cmts, rendering, and the exit-code policy shared with the CLI
    and the [@check-src] alias. *)

type report = { findings : Finding.t list; modules : int }

val run : ?rules:Rules.rule list -> string list -> (report, string) result
(** [run paths] analyzes every cmt reachable from [paths].  A path is a
    [.cmt] file, a directory scanned recursively, or a source directory
    resolved through its [_build/default] mirror.  [rules] defaults to
    {!Rules.all}.  [Error] means an unusable input (exit 3 territory),
    not a finding. *)

val errors : report -> int
val warnings : report -> int

val clean : ?strict:bool -> report -> bool
(** No errors; with [strict], no warnings either. *)

val exit_code : ?strict:bool -> report -> int
(** [0] when {!clean}, [1] otherwise.  (The CLI reserves [3] for
    unusable inputs, matching [redf metrics-diff].) *)

val pp : Format.formatter -> report -> unit
(** Findings one per line, then a summary line. *)

val schema_version : int

val to_json : report -> Wire.Json.t
(** The report as canonical JSON: [schema_version], [kind]
    ["check-src"], [clean], error/warning counts, module count and the
    location-sorted findings. *)
