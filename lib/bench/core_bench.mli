(** [redf bench-core]: per-decide analyzer cost across taskset sizes
    and call modes, written as [results/BENCH_core.json] and compared
    against a committed baseline.

    The matrix: DP/GN1/GN2/approx at N in {8, 64, 256} in single mode;
    DP/GN1/GN2 additionally in batch mode ({!Core.Analyzer.t.decide_all}
    over 16 distinct tasksets) at N in {8, 64} and in wide mode (one
    N=32 taskset whose ticks overflow an int); the exact oracle on
    crafted tasksets at N in {2, 3}.  Workloads derive from fixed
    seeds, so successive runs measure the same decides.

    Every row makes one warm-up call, then calls until 200 ms have
    passed, and reports the wall time per decide. *)

type row = {
  analyzer : string;
  n : int;  (** taskset size *)
  mode : string;  (** ["single"], ["batch"] or ["wide"] *)
  ns_per_decide : int;  (** whole nanoseconds, so the document holds no float *)
}

val matrix : unit -> (string * int * string) list
(** The matrix's [(analyzer, n, mode)] keys in row order, measuring
    nothing. *)

val collect : ?only:(string * int * string) list -> ?progress:(row -> unit) -> unit -> row list
(** Measure every row, or with [only] just the named
    [(analyzer, n, mode)] rows.  [progress] fires after each row. *)

(** {2 BENCH_core.json} *)

val core_doc : row list -> string
(** The full document, [schema_version] 4 (trailing newline included),
    printed by {!Wire.Json.to_string}: keys sorted, no whitespace. *)

val parse_core : string -> (row list, string) result
(** Parse a v4 document with {!Wire.Json.of_string}.  Any other
    [schema_version] is refused, by name when the document parses; a
    v1 or v2 row's fractional microseconds already fail the parse. *)

(** {2 Comparison} *)

val abs_slack_ns : int
(** A row counts as regressed only if it is more than 1.5 times its
    baseline and also slower by more than this many nanoseconds:
    micro-rows jitter too much between machines for a pure ratio
    gate. *)

type verdict =
  | Ok_row of float  (** ratio current/baseline, within the gate *)
  | Regressed of float  (** ratio beyond 1.5 and the absolute slack *)
  | New_row  (** no matching (analyzer, n, mode) row in the baseline *)

type compared = { row : row; baseline_ns : int option; verdict : verdict }

val compare_rows : baseline:row list -> row list -> compared list
(** Match current rows to baseline rows by (analyzer, n, mode). *)

val regressions : compared list -> compared list

(** {2 The verb} *)

val default_out : string
(** ["results/BENCH_core.json"]. *)

val ensure_parent_dir : string -> unit
(** Create the parent directory of an output path if missing. *)

val load_baseline : string option -> (row list option, string) result
(** Read and parse a [--compare] document; the error is the line to
    print. *)

val run : out:string -> baseline:row list option -> int
(** Measure the matrix, printing each row; with a baseline, measure
    each regressed row once more and keep the faster run.  Write the
    document to [out], print the comparison, and return the exit
    status: 1 if a row regressed, else 0. *)
