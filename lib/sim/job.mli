(** Job instances (the [J{^j}{_k}] of Section 2). *)

type t = {
  id : int;  (** globally unique within one simulation, release order *)
  task_index : int;  (** index of the task in the taskset *)
  task : Model.Task.t;
  release : Model.Time.t;  (** absolute release instant [r] *)
  abs_deadline : Model.Time.t;  (** absolute deadline [r + D] *)
  mutable remaining : Model.Time.t;  (** execution time still owed *)
}

val make : id:int -> task_index:int -> task:Model.Task.t -> release:Model.Time.t -> t

val is_finished : t -> bool

val compare_edf : t -> t -> int
(** The queue order of Definitions 1 and 2: non-decreasing absolute
    deadline, ties broken by release time, then by id (a deterministic
    total order). *)

val area : t -> int
