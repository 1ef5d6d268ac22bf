(* Model.Time.of_decimal_string as it was before the int-only parser:
   through Rat.of_decimal_string (Bignum.of_string, pow, two gcds and a
   Rat.mul), then Bignum.to_int_exn.  Kept as the differential
   reference the int parser is checked against (test_model.ml).  They
   differ in exactly two places: this one reads a signed fraction
   ("1.+5" as 1.5, "1.-0" as 1) where the int parser rejects it, and
   it fails with [Failure] from Bignum.to_int_exn on a tick count
   beyond [int] where the int parser raises [Invalid_argument]. *)

let scale = Model.Time.scale

let of_decimal_string s =
  let r = Rat.of_decimal_string s in
  let scaled = Rat.mul r (Rat.of_int scale) in
  if not (Bignum.equal (Rat.den scaled) Bignum.one) then
    invalid_arg (Printf.sprintf "Time.of_decimal_string: %S is finer than 1/%d" s scale);
  Model.Time.of_ticks (Bignum.to_int_exn (Rat.num scaled))
