exception Overflow

module type INT = sig
  type t

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val fdiv : t -> t -> t
  val compare : t -> t -> int
  val gcd : t -> t -> t
  val to_bignum : t -> Bignum.t
end

module Checked = struct
  type t = int

  let of_int x = x

  (* the sum overflowed iff it has neither operand's sign *)
  let add a b =
    let s = a + b in
    if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

  let sub a b =
    let s = a - b in
    if (a lxor b) land (a lxor s) < 0 then raise Overflow else s

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

  let fdiv a b =
    if a >= 0 && b > 0 then a / b
    else if b = -1 then if a = min_int then raise Overflow else -a
    else begin
      let q = a / b in
      if a mod b <> 0 && a lxor b < 0 then q - 1 else q
    end

  let compare = Int.compare

  let gcd a b =
    if a = min_int || b = min_int then raise Overflow;
    let rec go a b = if b = 0 then a else go b (a mod b) in
    go (abs a) (abs b)

  let to_bignum = Bignum.of_int
end

module Wide = struct
  type t = Bignum.t

  let of_int = Bignum.of_int
  let add = Bignum.add
  let sub = Bignum.sub
  let mul = Bignum.mul
  let fdiv = Bignum.fdiv
  let compare = Bignum.compare
  let gcd = Bignum.gcd
  let to_bignum x = x
end

let run ~fast ~wide x = try fast x with Overflow -> wide x
