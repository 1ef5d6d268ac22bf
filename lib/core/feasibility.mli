(** Necessary feasibility conditions.

    The sufficient tests (DP/GN1/GN2) under-approximate schedulability and
    simulation over-approximates it.  This module gives cheap {e
    necessary} conditions — a taskset failing any of them is infeasible
    under {e every} scheduling algorithm, work-conserving or not:

    - per-task sanity: [C_k <= min(D_k, T_k)];
    - area-time demand: [US(Gamma) <= A(H)] — the device supplies at most
      [A(H)] column-units per time unit;
    - mutual-exclusion chains: tasks that pairwise cannot share the device
      ([A_i + A_j > A(H)]) serialize, so every clique of pairwise-exclusive
      tasks must satisfy [sum C_i/T_i <= 1] (utilization, not density — a
      necessary condition must not overestimate long-run demand).
      Maximal cliques are found greedily — exact maximum-clique is
      exponential, and any clique yields a valid necessary condition.

    In sweeps this bounds the true schedulability curve from above
    independently of the simulation horizon. *)

val exclusion_cliques : fpga_area:int -> Model.Taskset.t -> int list list
(** Greedy maximal cliques (task indices) of the pairwise-exclusion
    graph; singleton cliques are omitted. *)

type violation =
  | Exec_exceeds_window of int  (** task index with [C > min(D,T)] *)
  | Device_overloaded of { us : Rat.t }  (** [US > A(H)] *)
  | Clique_overloaded of { tasks : int list; load : Rat.t }
      (** pairwise-exclusive tasks with total utilization > 1 *)

val check : fpga_area:int -> Model.Taskset.t -> violation list
(** All detected violations (empty = possibly feasible). *)

val feasible_maybe : fpga_area:int -> Model.Taskset.t -> bool
(** No necessary condition is violated.  [false] certifies
    infeasibility; [true] is inconclusive. *)

val pp_violation : Format.formatter -> violation -> unit
