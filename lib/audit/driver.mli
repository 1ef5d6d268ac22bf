(** Top-level audit driver: lint + cross-analyzer consistency in one
    report, with the exit-code policy shared by the CLI and the [@lint]
    alias. *)

type report = {
  fpga_area : int;
  lint : Diagnostic.t list;
  findings : Consistency.finding list;
}

val lint_only : ?hyperperiod_cap:Model.Time.t -> fpga_area:int -> Model.Taskset.t -> report
(** Static lint pass only; [findings] is empty. *)

val run :
  ?analyzers:Consistency.analyzer list ->
  ?config:Consistency.config ->
  ?jobs:int ->
  fpga_area:int ->
  Model.Taskset.t ->
  report
(** Lint plus the full consistency audit.  [config] defaults to
    {!Consistency.default_config}; when given, its [fpga_area] must agree
    with the argument.  [jobs] fans the audit units out over a domain
    pool (see {!Consistency.audit}); the report is identical for any
    worker count. *)

val diagnostics : report -> Diagnostic.t list
(** Lint diagnostics and converted findings, most severe first. *)

val clean : ?strict:bool -> report -> bool
val exit_code : ?strict:bool -> report -> int
(** [0] when {!clean}, [2] otherwise (matching [redf analyze]'s
    convention that 2 means "the taskset failed"). *)

val pp : ?label:string -> Format.formatter -> report -> unit
(** Human rendering: diagnostics one per line plus a summary line
    ("audit: 1 error, 2 warnings, 0 infos" or "audit: clean").
    [label] defaults to ["audit"]. *)

val to_json : ?kind:string -> ?file:string -> report -> Wire.Json.t
(** The report as canonical JSON (the [--format json] form): the
    shared [schema_version], [kind] (default ["audit"]; [redf lint]
    passes ["lint"]), [fpga_area], [clean] (non-strict), and the
    severity-sorted diagnostics — [task] fields are 1-based, matching
    the human rendering.  [file], when given, names the taskset file
    the report is about (an audit of several files). *)
