(** Exact integer arithmetic for the analyzers' decide paths.

    Every time of a taskset is an int tick count
    ({!Model.Taskset.Columns}), and every bound of DP, GN1 and GN2 is a
    ratio of sums of products of times, so each comparison a decide
    makes can be settled over the integers.  A decide is written once,
    against a module [I : INT], and compiled two ways: over {!Native}
    plain ints and over {!Bignum} ({!Wide}).  {!run} picks the path:

    - {e native}, when the analyzer's range check — one expression in
      {!Checked} ints over the largest tick, the largest area, N and,
      for DP and GN1, an lcm — evaluates without overflow.  Each
      analyzer derives its bound beside its range check ([dp.ml],
      [gn1.ml], [gn2.ml]): every intermediate of the pass is at most
      that value, so no plain-int operation can wrap;
    - {e wide} otherwise.

    Nothing wraps and nothing is a float.  The det counters
    [core.ticks.native] and [core.ticks.wide] count decides by the
    path that ran them.  The text of each decide ([dp_checks.ml],
    [gn1_checks.ml], [gn2_checks.ml]) becomes the two structs [Native]
    and [Wide] of one generated module ([lib/core/dune]); check-src's
    [exact-arith] rule keeps every other module in [lib/] from naming
    {!Native}. *)

exception Overflow
(** Raised by {!Checked} where the exact result does not fit in an
    [int]. *)

module type INT = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** The quotient of a non-negative dividend by a positive divisor:
      the only division a decide makes. *)

  val compare : t -> t -> int

  val gcd : t -> t -> t
  (** Of the absolute values. *)

  val to_int : t -> int
  (** @raise Overflow where the value leaves the [int] range. *)

  val to_bignum : t -> Bignum.t

  val ratio : t -> t -> Rat.t
  (** [ratio n d] is [n/d] in lowest terms; over ints, one native
      gcd. *)
end

(** Native ints that never wrap: the arithmetic of the range checks
    (the analyzers' and [Exact.Approx]'s), of {!lcm} and of GN2's
    printed lhs.
    Each operation raises {!Overflow} wherever its exact result leaves
    the [int] range. *)
module Checked : sig
  val add : int -> int -> int
  val mul : int -> int -> int

  val div : int -> int -> int
  (** Of a non-negative dividend by a positive divisor. *)

  val gcd : int -> int -> int
  (** Of the absolute values. *)

  val ratio : int -> int -> Rat.t
end

(** Plain ints: every operation is a primitive the compiler inlines,
    and none checks for overflow.  Only a decide's generated
    plain-int instance uses it, behind its range check. *)
module Native : sig
  type t = int

  external of_int : int -> t = "%identity"
  external add : t -> t -> t = "%addint"
  external sub : t -> t -> t = "%subint"
  external mul : t -> t -> t = "%mulint"
  external div : t -> t -> t = "%divint"
  external compare : t -> t -> int = "%compare"

  val gcd : t -> t -> t

  external to_int : t -> int = "%identity"

  val to_bignum : t -> Bignum.t
  val ratio : t -> t -> Rat.t
end

module Wide : INT with type t = Bignum.t

val max_tick : Model.Taskset.Columns.t -> int
(** The largest C, D or T tick of a taskset; 0 when it is empty. *)

val lcm : int array -> int
(** The lcm of positive ticks, 1 for none.  @raise Overflow where it
    leaves the [int] range. *)

val run : bound:('a -> int) -> native:('a -> 'b) -> wide:('a -> 'b) -> 'a -> 'b
(** [run ~bound ~native ~wide x] is [native x] when [bound x] returns
    (the range check held: no intermediate of [native x] exceeds the
    value it computes in {!Checked} ints), and [wide x] when it raises
    {!Overflow}.  Both must compute the same function.  It adds one to
    [core.ticks.native] or [core.ticks.wide], for the path it runs. *)
