(** Severity-tagged diagnostics shared by the taskset linter and the
    cross-analyzer consistency auditor.

    A diagnostic names the rule that fired, optionally the task it is
    about, and a human-readable message.  It renders in a
    compiler-style human form ([error[rule] task 3: ...]) here, and as
    canonical JSON through {!Driver.to_json}. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;  (** stable kebab-case rule identifier *)
  task_index : int option;  (** 0-based index into the taskset, when task-specific *)
  message : string;
}

val error : ?task_index:int -> rule:string -> string -> t
val warning : ?task_index:int -> rule:string -> string -> t
val info : ?task_index:int -> rule:string -> string -> t

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val compare_severity : severity -> severity -> int
(** [Error] orders before [Warning] orders before [Info]. *)

val equal_severity : severity -> severity -> bool
(** Monomorphic equality consistent with {!compare_severity}. *)

val count : severity -> t list -> int
val has_errors : t list -> bool
val has_warnings : t list -> bool

val by_severity : t list -> t list
(** Stable sort, most severe first. *)

val pp : Format.formatter -> t -> unit
(** Human form, e.g. [warning[duplicate-task-name] task 2: ...]. *)

val pp_list : Format.formatter -> t list -> unit
(** One human-form diagnostic per line. *)
