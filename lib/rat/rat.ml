module B = Bignum

type t = { num : B.t; den : B.t }

(* normalise: den > 0, gcd(num, den) = 1, zero is 0/1 *)
let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then { num = B.zero; den = B.one }
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    { num = B.div num g; den = B.div den g }
  end

let zero = { num = B.zero; den = B.one }
let of_int n = { num = B.of_int n; den = B.one }
let one = of_int 1
(* one native gcd; min_int, whose magnitude is no int, goes through
   [make] *)
let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = min_int || d = min_int then make (B.of_int n) (B.of_int d)
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let g = gcd (abs n) (abs d) in
    let g = if d < 0 then -g else g in
    { num = B.of_int (n / g); den = B.of_int (d / g) }
  end
let of_bignum n = { num = n; den = B.one }
let num t = t.num
let den t = t.den
let sign t = B.sign t.num
let is_zero t = B.is_zero t.num

let of_decimal_string s =
  match String.index_opt s '.' with
  | None -> make (B.of_string s) B.one
  | Some i ->
    let int_part = String.sub s 0 i in
    let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
    if frac_part = "" then invalid_arg "Rat.of_decimal_string: trailing dot";
    let negative = String.length int_part > 0 && int_part.[0] = '-' in
    let scale = B.pow (B.of_int 10) (String.length frac_part) in
    let ip = if int_part = "" || int_part = "-" || int_part = "+" then B.zero else B.of_string int_part in
    let fp = B.of_string frac_part in
    if B.sign fp < 0 then invalid_arg "Rat.of_decimal_string: sign in fraction";
    let n = B.add (B.mul (B.abs ip) scale) fp in
    make (if negative then B.neg n else n) scale

let add a b = make (B.add (B.mul a.num b.den) (B.mul b.num a.den)) (B.mul a.den b.den)
let neg a = { a with num = B.neg a.num }
let sub a b = add a (neg b)
let mul a b = make (B.mul a.num b.num) (B.mul a.den b.den)
let div a b = if B.is_zero b.num then raise Division_by_zero else make (B.mul a.num b.den) (B.mul a.den b.num)
let compare a b = B.compare (B.mul a.num b.den) (B.mul b.num a.den)
let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let floor t = B.fdiv t.num t.den

let ceil t =
  let q, r = B.fdivmod t.num t.den in
  if B.is_zero r then q else B.succ q

let floor_int t = B.to_int_exn (floor t)
let sum l = List.fold_left add zero l
let to_float t = B.to_float t.num /. B.to_float t.den

let to_string t =
  if B.equal t.den B.one then B.to_string t.num
  else B.to_string t.num ^ "/" ^ B.to_string t.den

let pp fmt t = Format.pp_print_string fmt (to_string t)
let pp_approx fmt t = Format.fprintf fmt "%.4f" (to_float t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
