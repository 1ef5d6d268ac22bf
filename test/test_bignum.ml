(* Unit and property tests for the arbitrary-precision integers.  The
   property tests compare against native-int arithmetic on ranges where it
   cannot overflow, then exercise genuinely multi-digit values. *)

module B = Bignum

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_b = Core_helpers.check_bignum

let roundtrip_ints () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31; max_int; min_int; min_int + 1 ]

let to_string_cases () =
  check_str "zero" "0" (B.to_string B.zero);
  check_str "small" "12345" (B.to_string (B.of_int 12345));
  check_str "negative" "-987654321" (B.to_string (B.of_int (-987654321)));
  check_str "max_int" (string_of_int max_int) (B.to_string (B.of_int max_int));
  check_str "min_int" (string_of_int min_int) (B.to_string (B.of_int min_int))

let of_string_cases () =
  check_b "round trip big" (B.pow (B.of_int 10) 30)
    (B.of_string "1000000000000000000000000000000");
  check_b "signed" (B.of_int (-123)) (B.of_string "-123");
  check_b "plus sign" (B.of_int 123) (B.of_string "+123");
  check_b "leading zeros" (B.of_int 7) (B.of_string "007");
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty string") (fun () ->
      ignore (B.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bignum.of_string: invalid digit") (fun () ->
      ignore (B.of_string "12x3"))

let big_arithmetic () =
  let p30 = B.pow (B.of_int 10) 30 in
  let p15 = B.pow (B.of_int 10) 15 in
  check_b "10^15 * 10^15" p30 (B.mul p15 p15);
  check_b "10^30 / 10^15" p15 (B.div p30 p15);
  check_b "10^30 mod 10^15" B.zero (B.rem p30 p15);
  check_b "(10^30+7) mod 10^15" (B.of_int 7) (B.rem (B.add p30 (B.of_int 7)) p15);
  check_b "pow composes" (B.pow (B.of_int 2) 100) (B.mul (B.pow (B.of_int 2) 60) (B.pow (B.of_int 2) 40));
  check_str "2^100" "1267650600228229401496703205376" (B.to_string (B.pow (B.of_int 2) 100))

let division_by_zero () =
  Alcotest.check_raises "divmod" Division_by_zero (fun () -> ignore (B.divmod B.one B.zero));
  Alcotest.check_raises "fdiv" Division_by_zero (fun () -> ignore (B.fdiv B.one B.zero))

let fdiv_cases () =
  (* floor semantics on all sign combinations *)
  let f a b = B.to_int_exn (B.fdiv (B.of_int a) (B.of_int b)) in
  Alcotest.(check int) "7/2" 3 (f 7 2);
  Alcotest.(check int) "-7/2" (-4) (f (-7) 2);
  Alcotest.(check int) "7/-2" (-4) (f 7 (-2));
  Alcotest.(check int) "-7/-2" 3 (f (-7) (-2));
  Alcotest.(check int) "6/2" 3 (f 6 2);
  Alcotest.(check int) "-6/2" (-3) (f (-6) 2)

let gcd_lcm_cases () =
  let g a b = B.to_int_exn (B.gcd (B.of_int a) (B.of_int b)) in
  Alcotest.(check int) "gcd 12 18" 6 (g 12 18);
  Alcotest.(check int) "gcd -12 18" 6 (g (-12) 18);
  Alcotest.(check int) "gcd 0 5" 5 (g 0 5);
  Alcotest.(check int) "gcd 0 0" 0 (g 0 0);
  check_b "lcm 4 6" (B.of_int 12) (B.lcm (B.of_int 4) (B.of_int 6));
  check_b "lcm 0 6" B.zero (B.lcm B.zero (B.of_int 6))

let misc_operations () =
  let module B = Bignum in
  check_b "succ" (B.of_int 8) (B.succ (B.of_int 7));
  check_b "pred" (B.of_int 6) (B.pred (B.of_int 7));
  check_b "min" (B.of_int (-3)) (B.min (B.of_int (-3)) (B.of_int 2));
  check_b "max" (B.of_int 2) (B.max (B.of_int (-3)) (B.of_int 2));
  check_b "abs neg" (B.of_int 5) (B.abs (B.of_int (-5)));
  check_b "neg zero" B.zero (B.neg B.zero);
  Alcotest.(check int) "sign neg" (-1) (B.sign (B.of_int (-9)));
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero);
  check_b "pow zero exponent" B.one (B.pow (B.of_int 9) 0);
  check_b "pow of zero" B.zero (B.pow B.zero 5);
  Alcotest.check_raises "pow negative" (Invalid_argument "Bignum.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)));
  (* hash consistent with equality on normalised values *)
  check_bool "hash equal" true (B.hash (B.of_int 42) = B.hash (B.of_string "42"));
  (* infix operators *)
  let open B.Infix in
  check_bool "infix" true
    (B.of_int 2 + B.of_int 3 = B.of_int 5
    && B.of_int 2 < B.of_int 3
    && B.of_int 3 >= B.of_int 3
    && B.of_int 6 / B.of_int 2 > B.of_int 2)

let to_int_overflow () =
  let too_big = B.mul (B.of_int max_int) (B.of_int 2) in
  check_bool "overflow detected" true (B.to_int_opt too_big = None);
  Alcotest.check_raises "to_int_exn raises"
    (Failure "Bignum.to_int_exn: value out of int range") (fun () -> ignore (B.to_int_exn too_big))

(* --- properties against the int oracle (range kept overflow-safe) --- *)

let small = QCheck2.Gen.int_range (-1_000_000) 1_000_000

let pair_oracle name op bop =
  Core_helpers.qtest name QCheck2.Gen.(pair small small) (fun (a, b) ->
      B.to_int_exn (bop (B.of_int a) (B.of_int b)) = op a b)

let prop_add = pair_oracle "add matches int" ( + ) B.add
let prop_sub = pair_oracle "sub matches int" ( - ) B.sub
let prop_mul = pair_oracle "mul matches int" ( * ) B.mul

let prop_divmod =
  Core_helpers.qtest "divmod matches int (/),(mod)"
    QCheck2.Gen.(pair small (QCheck2.Gen.oneof [ int_range 1 100000; int_range (-100000) (-1) ]))
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.to_int_exn q = a / b && B.to_int_exn r = a mod b)

let prop_compare =
  Core_helpers.qtest "compare matches int" QCheck2.Gen.(pair small small) (fun (a, b) ->
      compare a b = B.compare (B.of_int a) (B.of_int b))

let prop_string_roundtrip =
  Core_helpers.qtest "decimal string roundtrip" QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let v = B.of_string s in
      (* strip leading zeros for comparison *)
      B.equal v (B.of_string (B.to_string v)))

(* multi-digit: check ring laws directly on large random values *)
let large =
  QCheck2.Gen.map
    (fun (a, b, c) -> B.add (B.mul (B.of_int a) (B.pow (B.of_int 2) 70)) (B.mul (B.of_int b) (B.of_int c)))
    QCheck2.Gen.(triple small small small)

let prop_ring_distributes =
  Core_helpers.qtest "a*(b+c) = a*b + a*c (large)" QCheck2.Gen.(triple large large large)
    (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod_reconstructs =
  Core_helpers.qtest "a = q*b + r, |r| < |b| (large)" QCheck2.Gen.(pair large large)
    (fun (a, b) ->
      if B.is_zero b then true
      else begin
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a)
      end)

(* Algorithm D against the binary-search division it replaced: the
   same quotient and remainder, and a = q*b + r with sign r = sign a.
   Operands are random limb strings of 1-6 limbs, including divisor
   top limbs of 1 and 2^30 - 1 (the extremes of the normalizing shift),
   equal lengths and a < b. *)
let limb_gen =
  QCheck2.Gen.(
    frequency
      [ (4, int_range 0 ((1 lsl 30) - 1)); (1, oneofl [ 0; 1; 2; (1 lsl 29) - 1; 1 lsl 29; (1 lsl 30) - 1 ]) ])

let bignum_of_limbs top rest =
  Bignum_reference.of_limbs 1 (Array.of_list (rest @ [ top ]))

let operand_gen =
  QCheck2.Gen.(
    let* rest = list_size (int_range 0 5) limb_gen in
    let* top = frequency [ (3, int_range 1 ((1 lsl 30) - 1)); (1, oneofl [ 1; 2; (1 lsl 30) - 1 ]) ] in
    let* negative = bool in
    let v = bignum_of_limbs top rest in
    return (if negative then B.neg v else v))

let prop_divmod_reference =
  Core_helpers.qtest ~count:2000 "divmod == binary-search reference (multi-limb)"
    QCheck2.Gen.(pair operand_gen operand_gen)
    (fun (a, b) ->
      let q, r = B.divmod a b in
      let q', r' = Bignum_reference.divmod a b in
      B.equal q q' && B.equal r r'
      && B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

(* 2^90 / (2^60 + 1) is limbs [0,0,0,1] / [1,0,1]: after normalizing,
   the first quotient-limb estimate is one too large and only the
   add-back step repairs it *)
let divmod_add_back () =
  let a = B.pow B.two 90 and b = B.succ (B.pow B.two 60) in
  let q, r = B.divmod a b in
  check_b "quotient 2^30 - 1" (B.of_int ((1 lsl 30) - 1)) q;
  check_b "remainder 2^60 - 2^30 + 1" (B.of_int ((1 lsl 60) - (1 lsl 30) + 1)) r;
  let q', r' = Bignum_reference.divmod a b in
  check_b "reference quotient" q' q;
  check_b "reference remainder" r' r

let prop_gcd_divides =
  Core_helpers.qtest "gcd divides both (large)" QCheck2.Gen.(pair large large) (fun (a, b) ->
      let g = B.gcd a b in
      if B.is_zero g then B.is_zero a && B.is_zero b
      else B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let prop_to_float =
  Core_helpers.qtest "to_float close to int" small (fun a ->
      Float.abs (B.to_float (B.of_int a) -. float_of_int a) < 1e-6)

(* the base-10^9 chunk printer through the public API: the path every
   value wider than an int takes, and every value took before the
   native-int fast path *)
let general_to_string x =
  let billion = B.of_int 1_000_000_000 in
  let rec chunks m acc =
    if B.is_zero m then acc
    else
      let q, r = B.divmod m billion in
      chunks q (B.to_int_exn r :: acc)
  in
  match chunks (B.abs x) [] with
  | [] -> "0"
  | first :: rest ->
    (if B.sign x < 0 then "-" else "")
    ^ string_of_int first
    ^ String.concat "" (List.map (Printf.sprintf "%09d") rest)

(* around 0, +-2^30, +-2^60, max_int and min_int, and the same values
   pushed past the int range *)
let around_limits =
  let open QCheck2.Gen in
  let base = oneofl [ 0; 1 lsl 30; -(1 lsl 30); 1 lsl 60; -(1 lsl 60); max_int; min_int ] in
  map3
    (fun b d wide ->
      let x = B.add (B.of_int b) (B.of_int d) in
      if wide then B.mul x (B.pow (B.of_int 2) 40) else x)
    base (int_range (-70_000) 70_000) (frequency [ (4, return false); (1, return true) ])

let prop_to_string_general =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"to_string == general path near the int limits"
       ~print:general_to_string around_limits (fun x ->
         let s = B.to_string x in
         String.equal s (general_to_string x)
         && (match B.to_int_opt x with Some n -> String.equal s (string_of_int n) | None -> true)))

let prop_string_of_int =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"string_of_int == Stdlib.string_of_int" ~print:Int.to_string
       QCheck2.Gen.(
         oneof
           [
             int;
             int_range (-100) 100;
             map2 ( + ) (oneofl [ max_int; min_int; 0; 1 lsl 30; -(1 lsl 30) ]) (int_range (-20) 20);
           ])
       (fun n -> String.equal (B.string_of_int n) (string_of_int n)))

let () =
  Alcotest.run "bignum"
    [
      ( "unit",
        [
          Alcotest.test_case "int roundtrip" `Quick roundtrip_ints;
          Alcotest.test_case "to_string" `Quick to_string_cases;
          Alcotest.test_case "of_string" `Quick of_string_cases;
          Alcotest.test_case "big arithmetic" `Quick big_arithmetic;
          Alcotest.test_case "division by zero" `Quick division_by_zero;
          Alcotest.test_case "floor division" `Quick fdiv_cases;
          Alcotest.test_case "gcd/lcm" `Quick gcd_lcm_cases;
          Alcotest.test_case "misc operations" `Quick misc_operations;
          Alcotest.test_case "to_int overflow" `Quick to_int_overflow;
          Alcotest.test_case "division add-back step" `Quick divmod_add_back;
        ] );
      ( "properties",
        [
          prop_add;
          prop_sub;
          prop_mul;
          prop_divmod;
          prop_compare;
          prop_string_roundtrip;
          prop_ring_distributes;
          prop_divmod_reconstructs;
          prop_divmod_reference;
          prop_gcd_divides;
          prop_to_float;
          prop_to_string_general;
          prop_string_of_int;
        ] );
    ]
