(** One static-analysis finding with a precise source location.

    Severities are shared with the taskset linter
    ({!Audit.Diagnostic.severity}) so downstream tooling sees one
    vocabulary across [redf lint], [redf audit] and [redf check-src]. *)

type t = {
  severity : Audit.Diagnostic.severity;
  rule : string;  (** stable kebab-case rule identifier, see {!Rules} *)
  file : string;  (** workspace-relative source path, e.g. [lib/core/dp.ml] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

val error : rule:string -> file:string -> line:int -> col:int -> string -> t
val warning : rule:string -> file:string -> line:int -> col:int -> string -> t

val compare : t -> t -> int
(** Total order: file, line, column, rule, message. *)

val is_error : t -> bool
val is_warning : t -> bool

val pp : Format.formatter -> t -> unit
(** Compiler style: [lib/obs/obs.ml:55:2: error[det-purity]: ...]. *)

val to_json : t -> Wire.Json.t
