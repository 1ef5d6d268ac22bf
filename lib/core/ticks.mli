(** Exact integer arithmetic for the analyzers' decide paths.

    Every time of a taskset is an int tick count
    ({!Model.Taskset.Columns}), and every bound of DP, GN1 and GN2 is a
    ratio of sums of products of times, so each comparison a decide
    makes can be settled over the integers.  A decide is written once,
    as a functor over {!INT}, and instantiated twice: over native ints
    whose every operation is overflow-checked ({!Checked}), and over
    {!Bignum} ({!Wide}).  {!run} runs the first and, if any operation
    would have overflowed, reruns the second on the same input: nothing
    wraps and nothing is a float.  Only the numbers a verdict prints
    become {!Rat} values, each normalized once. *)

exception Overflow
(** Raised by {!Checked} where the exact result does not fit in an
    [int]. *)

module type INT = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val fdiv : t -> t -> t
  (** Floor division. *)

  val compare : t -> t -> int

  val gcd : t -> t -> t
  (** Of the absolute values. *)

  val to_bignum : t -> Bignum.t
end

module Checked : INT with type t = int
(** Native ints.  @raise Overflow wherever the exact result leaves the
    [int] range. *)

module Wide : INT with type t = Bignum.t

val run : fast:('a -> 'b) -> wide:('a -> 'b) -> 'a -> 'b
(** [run ~fast ~wide x] is [fast x], or [wide x] when [fast x] raises
    {!Overflow}.  Both must compute the same function. *)
