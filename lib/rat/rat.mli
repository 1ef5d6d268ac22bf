(** Exact rational arithmetic over {!Bignum}.

    Every schedulability bound in the paper (DP, GN1, GN2) is stated in
    this field, so that accept/reject decisions at exact equality points —
    e.g. the DP test on the paper's Table 1, where utilization and bound
    are both exactly [69/25] — are certified rather than subject to
    floating-point rounding.

    Values are kept normalised: positive denominator, numerator and
    denominator coprime, zero represented as [0/1]. *)

type t

val zero : t
val one : t

val make : Bignum.t -> Bignum.t -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints n d] = [n/d], normalized with one native gcd.
    @raise Division_by_zero when [d = 0]. *)

val of_bignum : Bignum.t -> t

val of_decimal_string : string -> t
(** Parses e.g. ["1.26"], ["-0.5"], ["42"] exactly (base-10 fixed point).
    @raise Invalid_argument on malformed input. *)

val num : t -> Bignum.t
val den : t -> Bignum.t
(** Denominator; always positive. *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when dividing by zero. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bignum.t
(** Largest integer [<= t]. *)

val ceil : t -> Bignum.t
(** Smallest integer [>= t]. *)

val floor_int : t -> int
(** @raise Failure when the result does not fit in an [int]. *)

val sum : t list -> t

val to_float : t -> float
val to_string : t -> string
(** ["num/den"], or just ["num"] for integers. *)

val pp : Format.formatter -> t -> unit

val pp_approx : Format.formatter -> t -> unit
(** Decimal approximation to 4 places, for human-readable reports. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
