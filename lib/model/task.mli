(** The hardware task model of Section 2.

    A task [tau_k = (C_k, D_k, T_k, A_k)] releases a job every period (or
    minimum inter-arrival) [T_k]; each job needs [C_k] time units of
    execution on [A_k] contiguous FPGA columns and must finish within the
    relative deadline [D_k]. *)

type t = {
  name : string;
  exec : Time.t;  (** worst-case execution time [C] *)
  deadline : Time.t;  (** relative deadline [D] *)
  period : Time.t;  (** period / minimum inter-arrival [T] *)
  area : int;  (** columns occupied [A] *)
}

val make : ?name:string -> exec:Time.t -> deadline:Time.t -> period:Time.t -> area:int -> unit -> t
(** @raise Invalid_argument when [exec <= 0], [deadline <= 0],
    [period <= 0] or [area < 1]. *)

val invalid : exec:Time.t -> deadline:Time.t -> period:Time.t -> area:int -> string option
(** The message {!make} raises for these parameters, [None] when it
    accepts them: for decoders that check a task without building it. *)

val of_decimal :
  ?name:string -> exec:string -> deadline:string -> period:string -> area:int -> unit -> t
(** Convenience constructor from decimal strings, e.g.
    [of_decimal ~exec:"1.26" ~deadline:"7" ~period:"7" ~area:9 ()]. *)

val time_utilization : t -> Rat.t
(** [C/T]. *)

val system_utilization : t -> Rat.t
(** [C*A/T] — the paper's area-weighted utilization. *)

val density : t -> Rat.t
(** [C/D]. *)

val is_implicit_deadline : t -> bool
(** [D = T]. *)

val is_constrained_deadline : t -> bool
(** [D <= T]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
