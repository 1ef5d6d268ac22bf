(** Fixed-point time.

    All task parameters and simulator clocks are integer counts of a fixed
    sub-unit tick ([1/1000] of a time unit).  Integer ticks make the
    discrete-event simulator exact (no drifting float comparisons) and
    convert losslessly to the rationals used by the analysis tests: the
    paper's parameters such as [C = 1.26] are representable exactly. *)

type t = private int
(** A duration or instant, in ticks.  May be negative (instants before the
    origin arise in analysis windows). *)

val scale : int
(** Ticks per time unit (1000). *)

val zero : t
val of_ticks : int -> t
val ticks : t -> int

val of_units : int -> t
(** [of_units 7] is exactly 7.0 time units.
    @raise Invalid_argument when [|u| > max_int / 1000], whose ticks
    would wrap around. *)

type decimal_error =
  | Malformed of string  (** not the grammar below, or finer than a tick; the message *)
  | Out_of_range  (** the tick count does not fit in a native [int] *)

val decimal : string -> (t, decimal_error) result
(** Exact conversion of a decimal spelling, [\[+-\]digits\[.digits\]]
    or [\[+-\].digits] (["1.26"], ["01.5"], [".5"], ["+7"]), straight
    into ticks.  Fraction digits past the third must be zeros.  The
    range is that of a native [int] of ticks. *)

val of_decimal_string : string -> t
(** {!decimal}, raising.
    @raise Invalid_argument when the spelling is malformed, not a whole
    tick count, or out of range. *)

val of_float_round : float -> t
(** Nearest-tick rounding; for synthetic workload generation only. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul_int : t -> int -> t
val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val is_positive : t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val to_rat : t -> Rat.t
(** Exact value in time units. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit
(** Prints in time units, e.g. [1.26]. *)

val to_string : t -> string
