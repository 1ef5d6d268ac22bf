(* Exact reproduction of the paper's Tables 1-3 (Section 6), including the
   quoted intermediate values.  All assertions are on exact rationals; no
   floating-point tolerance is involved. *)

let task name c d t a = Core_helpers.task name c d t a
let fpga_area = 10

(* Table 1: accepted by DP, rejected by GN1 and GN2 *)
let table1 =
  Model.Taskset.of_list [ task "tau1" "1.26" "7" "7" 9; task "tau2" "0.95" "5" "5" 6 ]

(* Table 2: accepted by GN1, rejected by DP and GN2 *)
let table2 = Model.Taskset.of_list [ task "tau1" "4.50" "8" "8" 3; task "tau2" "8.00" "9" "9" 5 ]

(* Table 3: accepted by GN2, rejected by DP and GN1 *)
let table3 = Model.Taskset.of_list [ task "tau1" "2.10" "5" "5" 7; task "tau2" "2.00" "7" "7" 7 ]

let check_bool = Alcotest.(check bool)
let check_rat = Core_helpers.check_rat

let decisions () =
  let expect name ts ~dp ~gn1 ~gn2 =
    check_bool (name ^ " DP") dp (Core.Dp.accepts ~fpga_area ts);
    check_bool (name ^ " GN1") gn1 (Core.Gn1.accepts ~fpga_area ts);
    check_bool (name ^ " GN2") gn2 (Core.Gn2.accepts ~fpga_area ts)
  in
  expect "table1" table1 ~dp:true ~gn1:false ~gn2:false;
  expect "table2" table2 ~dp:false ~gn1:true ~gn2:false;
  expect "table3" table3 ~dp:false ~gn1:false ~gn2:true

(* Section 6 worked example, DP on Table 3: US(Gamma) = 4.94 and the k=2
   bound is (A(H)-Amax+1)(1-UT(tau2)) + US(tau2) = 34/7 (the paper prints
   the rounded 4.85), so the test fails. *)
let dp_table3_numbers () =
  check_rat "US(table3)" (Rat.of_ints 247 50) (Model.Taskset.system_utilization table3);
  check_rat "DP bound k=2" (Rat.of_ints 34 7) (Analyzer_reference.Dp.bound ~fpga_area table3 ~k:1);
  check_bool "US > bound" true (Rat.compare (Model.Taskset.system_utilization table3) (Rat.of_ints 34 7) > 0)

(* Section 6 worked example, GN1 on Table 3 at k=2: N_1 = 1,
   beta_1 = 4.1/5, LHS = 7 * min(0.82, 5/7) = 5 > 20/7 = bound. *)
let gn1_table3_numbers () =
  Alcotest.(check string) "N_1" "1" (Bignum.to_string (Analyzer_reference.Gn1.n_jobs table3 ~k:1 ~i:0));
  check_rat "beta_1" (Rat.of_ints 41 50) (Analyzer_reference.Gn1.beta table3 ~k:1 ~i:0);
  let v = Core.Gn1.decide ~fpga_area table3 in
  let k2 = List.nth v.Core.Verdict.checks 1 in
  check_rat "lhs k=2" (Rat.of_int 5) k2.Core.Verdict.lhs;
  check_rat "rhs k=2" (Rat.of_ints 20 7) k2.Core.Verdict.rhs;
  check_bool "k=2 fails" false k2.Core.Verdict.satisfied

(* Section 6 worked example, GN2 on Table 3: at lambda = C1/T1 = 0.42,
   beta(1) = 0.42, beta(2) = 2/7, condition 2 RHS = 5.26 and LHS = 247/50
   (the paper prints 4.97 only because it rounds 2/7 to 0.29 first). *)
let gn2_table3_numbers () =
  let lambda = Rat.of_ints 21 50 in
  check_rat "beta(1) k=1" lambda (Analyzer_reference.Gn2.beta_lambda table3 ~k:0 ~i:0 ~lambda);
  check_rat "beta(2) k=1" (Rat.of_ints 2 7) (Analyzer_reference.Gn2.beta_lambda table3 ~k:0 ~i:1 ~lambda);
  let ev_k1 = Analyzer_reference.Gn2.evaluate_lambda ~fpga_area table3 ~k:0 ~lambda in
  check_rat "cond2 rhs k=1" (Rat.of_ints 263 50) ev_k1.Analyzer_reference.Gn2.cond2_rhs;
  check_rat "cond2 lhs k=1" (Rat.of_ints 247 50) ev_k1.Analyzer_reference.Gn2.cond2_lhs;
  check_bool "cond2 holds k=1" true ev_k1.Analyzer_reference.Gn2.cond2;
  let ev_k2 = Analyzer_reference.Gn2.evaluate_lambda ~fpga_area table3 ~k:1 ~lambda in
  check_bool "cond2 holds k=2" true ev_k2.Analyzer_reference.Gn2.cond2

(* The candidate enumeration includes the lambda the paper uses. *)
let gn2_candidates () =
  let cands = Analyzer_reference.Gn2.lambda_candidates table3 ~k:1 in
  check_bool "0.42 is a candidate" true
    (List.exists (fun l -> Rat.equal l (Rat.of_ints 21 50)) cands);
  List.iter
    (fun l -> check_bool "candidate >= C_k/T_k" true (Rat.compare l (Rat.of_ints 2 7) >= 0))
    cands

(* Table 1 is the exact-equality case for DP: US = 2.76 equals the k=2
   bound exactly, so DP must accept with non-strict comparison; GN2's
   condition 2 also evaluates to exactly 2.76 on both sides at
   lambda = 0.19, which is why only the strict reading of Theorem 3
   reproduces the paper's rejection. *)
let table1_equality_points () =
  let us = Model.Taskset.system_utilization table1 in
  check_rat "US(table1)" (Rat.of_ints 69 25) us;
  check_rat "DP bound k=2" (Rat.of_ints 69 25) (Analyzer_reference.Dp.bound ~fpga_area table1 ~k:1);
  let ev = Analyzer_reference.Gn2.evaluate_lambda ~fpga_area table1 ~k:1 ~lambda:(Rat.of_ints 19 100) in
  check_rat "GN2 cond2 lhs" (Rat.of_ints 69 25) ev.Analyzer_reference.Gn2.cond2_lhs;
  check_rat "GN2 cond2 rhs" (Rat.of_ints 69 25) ev.Analyzer_reference.Gn2.cond2_rhs;
  check_bool "strict condition fails" false ev.Analyzer_reference.Gn2.cond2

(* The printed Theorem-2 variant is more pessimistic but must agree on the
   three tables except where the tie matters. *)
let gn1_printed_variant () =
  check_bool "table1 printed" false (Core.Gn1.accepts_printed ~fpga_area table1);
  check_bool "table2 printed" true (Core.Gn1.accepts_printed ~fpga_area table2);
  check_bool "table3 printed" false (Core.Gn1.accepts_printed ~fpga_area table3)

(* The uncorrected Danne-Platzner bound is strictly more pessimistic than
   the integer-corrected DP. *)
let dp_original_more_pessimistic () =
  List.iter
    (fun ts ->
      let corrected = Core.Dp.accepts ~fpga_area ts in
      let original = Core.Dp.accepts_original ~fpga_area ts in
      check_bool "original => corrected" true ((not original) || corrected))
    [ table1; table2; table3 ]

(* The combined test of Section 6 accepts all three tables for EDF-NF. *)
let composite_accepts_all () =
  List.iter
    (fun ts -> check_bool "any-of accepts" true (Core.Composite.edf_nf_any ~fpga_area ts))
    [ table1; table2; table3 ]

let () =
  Alcotest.run "paper_tables"
    [
      ( "tables",
        [
          Alcotest.test_case "accept/reject decisions" `Quick decisions;
          Alcotest.test_case "DP numbers on table 3" `Quick dp_table3_numbers;
          Alcotest.test_case "GN1 numbers on table 3" `Quick gn1_table3_numbers;
          Alcotest.test_case "GN2 numbers on table 3" `Quick gn2_table3_numbers;
          Alcotest.test_case "GN2 lambda candidates" `Quick gn2_candidates;
          Alcotest.test_case "table 1 equality points" `Quick table1_equality_points;
          Alcotest.test_case "GN1 printed variant" `Quick gn1_printed_variant;
          Alcotest.test_case "DP original vs corrected" `Quick dp_original_more_pessimistic;
          Alcotest.test_case "composite accepts all tables" `Quick composite_accepts_all;
        ] );
    ]
