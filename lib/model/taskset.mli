(** Tasksets (the paper's [Gamma]) and their aggregate characteristics. *)

type t

val of_list : Task.t list -> t
(** @raise Invalid_argument on an empty list. *)

val to_list : t -> Task.t list
val to_array : t -> Task.t array
val size : t -> int
val nth : t -> int -> Task.t

val time_utilization : t -> Rat.t
(** [UT(Gamma) = sum C_i / T_i]. *)

val system_utilization : t -> Rat.t
(** [US(Gamma) = sum C_i * A_i / T_i]. *)

val amax : t -> int
(** Largest task area. *)

val amin : t -> int
(** Smallest task area. *)

val all_implicit_deadline : t -> bool
val all_constrained_deadline : t -> bool

val fits : t -> fpga_area:int -> bool
(** Every task individually fits on the device: [amax <= fpga_area]. *)

type hyperperiod = Finite of Time.t | Exceeds_cap

val hyperperiod : ?cap:Time.t -> t -> hyperperiod
(** Least common multiple of the periods, or [Exceeds_cap] once the LCM
    grows beyond [cap] (default 10^7 ticks = 10^4 time units).  Synthetic
    periods drawn from a continuous range routinely have astronomically
    large hyper-periods; the simulator treats [Exceeds_cap] by truncating
    its horizon (see {!Sim}). *)

(** Structure-of-arrays view of a taskset: one int array per parameter,
    in tick units, plus the name table.  Built once per taskset, it is
    what the int-tick decides of DP, GN1 and GN2 and the
    canonical cache keying ({!Cache.Canonical}) iterate over instead of
    re-walking task records. *)
module Columns : sig
  type taskset := t

  type t = {
    n : int;
    exec : int array;  (** [C_i] in ticks *)
    deadline : int array;  (** [D_i] in ticks *)
    period : int array;  (** [T_i] in ticks *)
    area : int array;  (** [A_i] in columns *)
    names : string array;
  }

  val of_taskset : taskset -> t

  val to_taskset : t -> taskset
  (** Inverse of {!of_taskset}: [to_taskset (of_taskset ts)] equals [ts]
      task for task, names included. *)
end

val to_csv : t -> string
(** One header line then one [name,C,D,T,A] line per task (decimal time
    units). *)

val of_csv : string -> t
(** Inverse of {!to_csv}. @raise Invalid_argument on malformed input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
