type t = int

let scale = 1000
let zero = 0
let of_ticks n = n
let ticks n = n
let of_units u = u * scale

let of_decimal_string s =
  let r = Rat.of_decimal_string s in
  let scaled = Rat.mul r (Rat.of_int scale) in
  if not (Bignum.equal (Rat.den scaled) Bignum.one) then
    invalid_arg (Printf.sprintf "Time.of_decimal_string: %S is finer than 1/%d" s scale);
  Bignum.to_int_exn (Rat.num scaled)

let of_float_round f = int_of_float (Float.round (f *. float_of_int scale))
let add = ( + )
let sub = ( - )
let mul_int t k = t * k
let min = Int.min
let max = Int.max
let compare = Int.compare
let equal = Int.equal
let is_positive t = t > 0

(* annotated at [int] so each compiles to a native comparison, not a
   call to the polymorphic comparator *)
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
let ( >= ) (a : t) (b : t) = a >= b
let ( > ) (a : t) (b : t) = a > b
let to_rat t = Rat.of_ints t scale
let to_float t = float_of_int t /. float_of_int scale

let to_string t =
  let sign = if Stdlib.(t < 0) then "-" else "" in
  let a = abs t in
  let whole = a / scale and frac = a mod scale in
  if frac = 0 then Printf.sprintf "%s%d" sign whole
  else begin
    (* trim trailing zeros of the 3-digit fraction *)
    let f = Printf.sprintf "%03d" frac in
    let len = ref (String.length f) in
    while f.[!len - 1] = '0' do
      decr len
    done;
    Printf.sprintf "%s%d.%s" sign whole (String.sub f 0 !len)
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
