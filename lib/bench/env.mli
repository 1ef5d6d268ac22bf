(** Shared I/O layer of the benchmark harness.

    One home for the [results/] directory convention and the
    schema-versioned row format of [BENCH_core.json].  [redf bench-core]
    (the only writer of that file) and the offline [bench/] harness are
    its clients.

    This library is excluded from check-src's determinism scope — wall
    clocks, environment and the filesystem are its whole job.  Nothing
    here may leak into analyzer decide paths. *)

val results_dir : string
(** ["results"] — where the committed benchmark artifacts live. *)

val ensure_results_dir : unit -> unit

val write_file : string -> string -> unit
(** [write_file name contents] writes [results_dir/name] (creating the
    directory first). *)

val ensure_parent_dir : string -> unit
(** Create the parent directory of an output path if missing. *)

(** {2 BENCH_core.json rows (schema v3)} *)

type core_row = {
  analyzer : string;
  n : int;  (** taskset size *)
  mode : string;  (** ["single"] ({!Core.Analyzer.t.decide} per taskset) or ["batch"] ([decide_all]) *)
  ns_per_decide : int;  (** whole nanoseconds, so the document holds no float *)
  truncated : bool;
      (** the row's measurement was cut short (or skipped entirely,
          [ns_per_decide = 0]) by an expired [--budget-ms]; comparison
          ignores truncated rows on either side *)
}

val core_doc : core_row list -> string
(** The full [BENCH_core.json] document, [schema_version] 3 (trailing
    newline included), printed by {!Wire.Json.to_string}: keys sorted,
    no whitespace. *)

val parse_core : string -> (core_row list, string) result
(** Parse a v3 document with {!Wire.Json.of_string}.  Any other
    [schema_version] is refused, by name when the document parses; a
    v1 or v2 row's fractional microseconds already fail the parse. *)

(** {2 Wall-clock budgets ([--budget-ms])} *)

type budget

val budget_of_ms : int option -> budget
(** [None] — no deadline, {!within} is always true. *)

val within : budget -> bool
