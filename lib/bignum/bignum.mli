(** Arbitrary-precision signed integers.

    The schedulability tests of Guan et al. (IPDPS 2007) must be evaluated
    exactly: the DP decision on the paper's Table 1, for instance, hinges on
    an exact equality between two sums of products of decimal task
    parameters, which binary floating point cannot certify.  [zarith] is not
    available in this environment, so this module provides the minimal exact
    integer arithmetic needed by {!Rat}.

    Values are immutable.  Magnitudes are stored little-endian in base
    [2{^30}]; all operations are schoolbook and intended for the small
    numbers (a few hundred bits) arising from schedulability formulas. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated towards zero and
    [sign r = sign a] (OCaml [(/)] / [(mod)] semantics).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val fdiv : t -> t -> t
(** Floor division: rounds towards negative infinity. *)

val fdivmod : t -> t -> t * t
(** Floor division with remainder: [r] has the sign of the divisor. *)

val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd 0 0 = 0]. *)

val lcm : t -> t -> t

val pow : t -> int -> t
(** [pow b n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val min : t -> t -> t
val max : t -> t -> t

val of_string : string -> t
(** Parses an optionally-signed decimal numeral.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal digits.  A value that fits in an [int] prints through
    {!string_of_int}. *)

val string_of_int : int -> string
(** The bytes of [Stdlib.string_of_int], written by a digit loop
    instead of a C format call: the native-int printer of the response
    and cache-key paths. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit

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
