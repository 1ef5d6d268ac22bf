(* Unit and property tests for exact rationals. *)

let check_rat = Core_helpers.check_rat
let check_bool = Alcotest.(check bool)

let decimal_parsing () =
  check_rat "1.26" (Rat.of_ints 63 50) (Rat.of_decimal_string "1.26");
  check_rat "0.95" (Rat.of_ints 19 20) (Rat.of_decimal_string "0.95");
  check_rat "-0.5" (Rat.of_ints (-1) 2) (Rat.of_decimal_string "-0.5");
  check_rat "42" (Rat.of_int 42) (Rat.of_decimal_string "42");
  check_rat "0.000" Rat.zero (Rat.of_decimal_string "0.000");
  check_rat "10.100" (Rat.of_ints 101 10) (Rat.of_decimal_string "10.100");
  Alcotest.check_raises "trailing dot" (Invalid_argument "Rat.of_decimal_string: trailing dot")
    (fun () -> ignore (Rat.of_decimal_string "3."))

let normalisation () =
  check_rat "6/4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints 6 4);
  check_rat "-6/-4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints (-6) (-4));
  check_rat "6/-4 = -3/2" (Rat.of_ints (-3) 2) (Rat.of_ints 6 (-4));
  check_bool "den positive" true (Bignum.sign (Rat.den (Rat.of_ints 5 (-7))) > 0);
  Alcotest.(check string) "to_string int" "3" (Rat.to_string (Rat.of_ints 6 2));
  Alcotest.(check string) "to_string frac" "-3/2" (Rat.to_string (Rat.of_ints 6 (-4)))

let zero_division () =
  Alcotest.check_raises "of_ints" Division_by_zero (fun () -> ignore (Rat.of_ints 1 0));
  Alcotest.check_raises "div" Division_by_zero (fun () -> ignore (Rat.div Rat.one Rat.zero))

let floor_ceil_cases () =
  let fl n d = Bignum.to_int_exn (Rat.floor (Rat.of_ints n d)) in
  let ce n d = Bignum.to_int_exn (Rat.ceil (Rat.of_ints n d)) in
  Alcotest.(check int) "floor 7/2" 3 (fl 7 2);
  Alcotest.(check int) "floor -7/2" (-4) (fl (-7) 2);
  Alcotest.(check int) "floor 4/2" 2 (fl 4 2);
  Alcotest.(check int) "ceil 7/2" 4 (ce 7 2);
  Alcotest.(check int) "ceil -7/2" (-3) (ce (-7) 2);
  Alcotest.(check int) "ceil 4/2" 2 (ce 4 2)

(* clamping is min and max composed *)
let clamp_minmax () =
  let lo = Rat.of_int 0 and hi = Rat.of_int 10 in
  let clamp x = Rat.min hi (Rat.max lo x) in
  check_rat "clamp below" lo (clamp (Rat.of_int (-5)));
  check_rat "clamp above" hi (clamp (Rat.of_int 15));
  check_rat "clamp inside" (Rat.of_int 5) (clamp (Rat.of_int 5));
  check_rat "min" (Rat.of_ints 1 3) (Rat.min (Rat.of_ints 1 3) (Rat.of_ints 1 2));
  check_rat "max" (Rat.of_ints 1 2) (Rat.max (Rat.of_ints 1 3) (Rat.of_ints 1 2))

let sum_cases () =
  check_rat "sum empty" Rat.zero (Rat.sum []);
  check_rat "sum thirds" Rat.one (Rat.sum [ Rat.of_ints 1 3; Rat.of_ints 1 3; Rat.of_ints 1 3 ])

(* --- properties --- *)

let rat_gen =
  QCheck2.Gen.map
    (fun (n, d) -> Rat.of_ints n (if d = 0 then 1 else d))
    QCheck2.Gen.(pair (int_range (-10000) 10000) (int_range (-1000) 1000))

let triple_gen = QCheck2.Gen.triple rat_gen rat_gen rat_gen

let prop_add_assoc =
  Core_helpers.qtest "(a+b)+c = a+(b+c)" triple_gen (fun (a, b, c) ->
      Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)))

let prop_mul_assoc =
  Core_helpers.qtest "(a*b)*c = a*(b*c)" triple_gen (fun (a, b, c) ->
      Rat.equal (Rat.mul (Rat.mul a b) c) (Rat.mul a (Rat.mul b c)))

let prop_distrib =
  Core_helpers.qtest "a*(b+c) = a*b + a*c" triple_gen (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_add_comm =
  Core_helpers.qtest "a+b = b+a" (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_sub_inverse =
  Core_helpers.qtest "(a+b)-b = a" (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      Rat.equal (Rat.sub (Rat.add a b) b) a)

let prop_div_inverse =
  Core_helpers.qtest "(a*b)/b = a (b<>0)" (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      Rat.is_zero b || Rat.equal (Rat.div (Rat.mul a b) b) a)

let prop_compare_total =
  Core_helpers.qtest "compare antisymmetric" (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      Rat.compare a b = -Rat.compare b a)

let prop_compare_float =
  Core_helpers.qtest "compare agrees with floats (away from ties)"
    (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      let fa = Rat.to_float a and fb = Rat.to_float b in
      if Float.abs (fa -. fb) < 1e-9 then true
      else (Rat.compare a b < 0) = (fa < fb))

let prop_floor_bounds =
  Core_helpers.qtest "floor(x) <= x < floor(x)+1" rat_gen (fun x ->
      let f = Rat.of_bignum (Rat.floor x) in
      Rat.compare f x <= 0 && Rat.compare x (Rat.add f Rat.one) < 0)

let prop_normalised =
  Core_helpers.qtest "results are normalised" (QCheck2.Gen.pair rat_gen rat_gen) (fun (a, b) ->
      let r = Rat.add a b in
      Bignum.sign (Rat.den r) > 0
      && Bignum.equal (Bignum.gcd (Rat.num r) (Rat.den r)) (if Rat.is_zero r then Bignum.zero else Bignum.one)
         (* gcd(0, 1) = 1 in our encoding of zero as 0/1 *)
         || Rat.is_zero r)

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "decimal parsing" `Quick decimal_parsing;
          Alcotest.test_case "normalisation" `Quick normalisation;
          Alcotest.test_case "zero division" `Quick zero_division;
          Alcotest.test_case "floor/ceil" `Quick floor_ceil_cases;
          Alcotest.test_case "clamp/min/max" `Quick clamp_minmax;
          Alcotest.test_case "sum" `Quick sum_cases;
        ] );
      ( "properties",
        [
          prop_add_assoc;
          prop_mul_assoc;
          prop_distrib;
          prop_add_comm;
          prop_sub_inverse;
          prop_div_inverse;
          prop_compare_total;
          prop_compare_float;
          prop_floor_bounds;
          prop_normalised;
        ] );
    ]
