(** Exact-rational views of task parameters, shared by all tests. *)

type task_q = {
  index : int;
  area : int;  (** [A_i], integer columns *)
  area_q : Rat.t;
  c : Rat.t;  (** execution time [C_i] in time units *)
  d : Rat.t;  (** relative deadline [D_i] *)
  t : Rat.t;  (** period [T_i] *)
}

val of_taskset : Model.Taskset.t -> task_q array

val time_utilization : task_q -> Rat.t
val system_utilization : task_q -> Rat.t
val density : task_q -> Rat.t
val amax : task_q array -> int
val amin : task_q array -> int
val total_ut : task_q array -> Rat.t
val total_us : task_q array -> Rat.t
