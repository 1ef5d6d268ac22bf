exception Overflow

module type INT = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val compare : t -> t -> int
  val gcd : t -> t -> t
  val to_int : t -> int
  val to_bignum : t -> Bignum.t
  val ratio : t -> t -> Rat.t
end

let rec euclid a b = if b = 0 then a else euclid b (a mod b)

module Checked = struct
  (* the sum overflowed iff it has neither operand's sign *)
  let add a b =
    let s = a + b in
    if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

  (* |a| < 2^31 and |b| < 2^31, or one below 2^16 and the other below
     2^46, keep |a b| below 2^62 without a division; [abs min_int] is
     negative, so it fails every shift test *)
  let mul a b =
    let ua = abs a and ub = abs b in
    if (ua lor ub) lsr 31 = 0 || (ua lsr 16 = 0 && ub lsr 46 = 0) || (ub lsr 16 = 0 && ua lsr 46 = 0)
    then a * b
    else if a = 0 then 0
    else begin
      let p = a * b in
      if p / a = b && not (a = -1 && b = min_int) then p else raise Overflow
    end

  (* a non-negative dividend over a positive divisor cannot overflow *)
  let div a b = a / b

  let gcd a b =
    if a = min_int || b = min_int then raise Overflow;
    euclid (abs a) (abs b)

  let ratio = Rat.of_ints
end

module Native = struct
  type t = int

  external of_int : int -> t = "%identity"
  external add : t -> t -> t = "%addint"
  external sub : t -> t -> t = "%subint"
  external mul : t -> t -> t = "%mulint"
  external div : t -> t -> t = "%divint"
  external compare : t -> t -> int = "%compare"

  let gcd a b = euclid (abs a) (abs b)

  external to_int : t -> int = "%identity"

  let to_bignum = Bignum.of_int
  let ratio = Rat.of_ints
end

module _ : INT = Native

module Wide = struct
  type t = Bignum.t

  let of_int = Bignum.of_int
  let add = Bignum.add
  let sub = Bignum.sub
  let mul = Bignum.mul
  let div = Bignum.div
  let compare = Bignum.compare
  let gcd = Bignum.gcd
  let to_int x = match Bignum.to_int_opt x with Some n -> n | None -> raise Overflow
  let to_bignum x = x
  let ratio = Rat.make
end

let max_tick (cols : Model.Taskset.Columns.t) =
  let top = Array.fold_left max in
  top (top (top 0 cols.exec) cols.deadline) cols.period

let lcm ticks = Array.fold_left (fun l x -> Checked.mul (l / euclid l x) x) 1 ticks

(* the path that runs each decide *)
let m_native = Obs.Counter.make "core.ticks.native"
let m_wide = Obs.Counter.make "core.ticks.wide"

let run ~bound ~native ~wide x =
  match bound x with
  | (_ : int) ->
    Obs.Counter.incr m_native;
    native x
  | exception Overflow ->
    Obs.Counter.incr m_wide;
    wide x
