(** Common result shape for schedulability tests.

    Every test in this library is {e sufficient}: [accepted = true]
    guarantees schedulability under the test's scheduling algorithm, while
    [accepted = false] is inconclusive.  The per-task records keep the
    exact rational left/right-hand sides so a rejection can be audited
    against the paper's worked examples. *)

type task_check = {
  task_index : int;  (** the [k] of the per-task condition *)
  satisfied : bool;
  lhs : Rat.t;  (** evaluated left-hand side *)
  rhs : Rat.t;  (** evaluated bound *)
  note : string;  (** human-readable detail (e.g. which lambda succeeded) *)
}

type t = {
  test_name : string;
  accepted : bool;
  checks : task_check list;  (** one per task, in taskset order *)
}

val accepted : t -> bool
val make : test_name:string -> checks:task_check list -> t
(** [accepted] is the conjunction of all per-task [satisfied] flags. *)

val reject_all : test_name:string -> note:string -> Model.Taskset.t -> t
(** A verdict rejecting every task with the same note (used for
    precondition failures such as a task wider than the device). *)

val reject_all_n : test_name:string -> note:string -> int -> t
(** {!reject_all} for callers that only hold the task count (the
    columnar decide paths); identical verdict. *)

val remap : int array -> t -> t
(** [remap order v]: [v]'s checks moved from canonical task [p] to
    original task [order.(p)] and sorted, stably, by their new index —
    the verdict of the original taskset when [v] is that of the
    canonical one ({!Cache.Canonical}). *)

val failing_tasks : t -> int list
val pp : Format.formatter -> t -> unit

val schema_version : int
(** Version of the machine-readable verdict/report/diagnostic schema
    shared by [redf analyze --format json], [redf lint --format json]
    and the analysis server; bumped on any incompatible change. *)

val to_json : ?version:string -> t -> Wire.Json.t
(** [{"accepted":bool,"analyzer":name,"analyzer_version"?:version,
    "checks":[{"lhs":…,"note"?:…,"rhs":…,"satisfied":…,"task":k}]}]
    with exact rational sides as strings, fields in key order; [task]
    is 1-based like {!pp}.  The analysis server returns exactly this
    object (plus its envelope), so CLI and server output are
    interchangeable. *)

(** A verdict as the service prints it: its JSON object cut into
    pieces that need no [Rat] printing to reassemble.  A check object
    prints its keys in the order [lhs], [note], [rhs], [satisfied],
    [task], so all of it but the task number is fixed bytes; the
    service's cache stores this form and a hit only writes fragments. *)
module Rendered : sig
  type verdict := t

  type t = {
    accepted : bool;
    test_name : string;
    tasks : int array;  (** per check, its task index *)
    checks : string array;
        (** per check, the bytes of its {!to_json} object up to and
            including ["task":] *)
  }

  val of_verdict : verdict -> t
  (** Each check's bytes written into one buffer reused across the
      verdict, each side through {!Bignum.add_decimal}: the bytes
      {!to_json} prints. *)

  val remap : int array -> t -> t
  (** {!remap} (the verdict's) on the rendered form. *)
end
