(** Multi-analyzer reports for one taskset, in human and JSON form. *)

type t = {
  fpga_area : int;
  analyzers : Analyzer.t list;  (** parallel to [verdicts] *)
  taskset : Model.Taskset.t;
  verdicts : Verdict.t list;
  time_utilization : Rat.t;
  system_utilization : Rat.t;
}

val run : ?analyzers:Analyzer.t list -> fpga_area:int -> Model.Taskset.t -> t
(** Default analyzers: {!Analyzer.defaults} (DP, GN1, GN2). *)

val summary_line : t -> string
(** e.g. ["DP:ACCEPT GN1:REJECT GN2:REJECT"]. *)

val pp : Format.formatter -> t -> unit

val task_json : Model.Task.t -> Wire.Json.t
(** [{"name":…,"C":"1.26","D":"7","T":"7","A":9}] — decimal time
    strings, exactly the shape server requests carry. *)

val verdict_json : Analyzer.t -> Verdict.t -> Wire.Json.t
(** {!Verdict.to_json} plus the analyzer's ["analyzer_version"] — the
    per-verdict object both [--format json] and the server emit. *)

val to_json : t -> Wire.Json.t
(** The whole report with ["schema_version"]. *)
