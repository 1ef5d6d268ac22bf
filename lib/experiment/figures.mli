(** The paper's four evaluation figures as ready-to-run sweep configs. *)

type figure =
  | Fig3a  (** 4 tasks, unconstrained execution-time and area distributions *)
  | Fig3b  (** 10 tasks, unconstrained *)
  | Fig4a  (** 10 spatially heavy, temporally light tasks *)
  | Fig4b  (** 10 spatially light, temporally heavy tasks *)

val all : figure list
val id : figure -> string
(** e.g. ["fig3a"]. *)

val caption : figure -> string

val config : ?samples:int -> ?seed:int -> ?sim_horizon:Model.Time.t -> figure -> Sweep.config
(** The sweep reproducing the figure; defaults from
    {!Sweep.default_config}.  Utilization points above the profile's
    reachable maximum are pruned. *)
