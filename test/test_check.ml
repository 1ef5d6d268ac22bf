(* Tests for the check-src static-analysis pass, run against the
   deliberately-flawed fixture modules in check_fixtures/.  Each rule
   family is pinned to its exact (rule, file, line, col) findings, so a
   location regression in the pass fails loudly, and the negative
   cases (Atomic state, justified allows, int compares) prove the
   rules do not over-fire. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* cwd during dune runtest is _build/default/test; fall back to the
   build mirror so `dune exec test/test_check.exe` from the root also
   works *)
let cmt_dir =
  let local = Filename.concat "check_fixtures" ".check_fixtures.objs/byte" in
  if Sys.file_exists local then local else Filename.concat "_build/default/test" local
let cmt name = Filename.concat cmt_dir ("check_fixtures__" ^ name ^ ".cmt")

let findings ?(rules = Check.Rules.all) name =
  match Check.Analysis.run_cmt ~rules (cmt name) with
  | Ok r -> r.Check.Analysis.findings
  | Error e -> Alcotest.failf "run_cmt %s: %s" name e

(* a finding rendered as a comparable quadruple *)
let quad (f : Check.Finding.t) = (f.rule, f.line, f.col, Check.Finding.is_error f)
let quads fs = List.map quad fs

let pp_quad fmt (rule, line, col, err) =
  Format.fprintf fmt "(%s,%d,%d,%b)" rule line col err

let quad_t = Alcotest.testable pp_quad ( = )

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
let check_quads = Alcotest.(check (list quad_t))

(* --- one test per rule family --- *)

let det_purity () =
  check_quads "fix_det findings"
    [ ("det-purity", 6, 17, true); ("det-purity", 7, 14, true) ]
    (quads (findings "Fix_det"))

let domain_safety () =
  (* the bare ref is flagged; the Atomic and the allowed Hashtbl are not *)
  check_quads "fix_domain findings"
    [ ("domain-safety", 5, 4, true) ]
    (quads (findings "Fix_domain"))

let exact_arith () =
  check_quads "fix_exact findings"
    [
      ("exact-arith", 5, 11, true);
      ("exact-arith", 6, 14, true);
      ("exact-arith", 7, 15, true);
      ("exact-arith", 8, 38, true);
    ]
    (quads (findings "Fix_exact"))

(* naming the plain-int Ticks instance, as a value and as a module,
   is flagged; the checked instance is not *)
let plain_int () =
  check_quads "fix_ranged findings"
    [ ("exact-arith", 6, 16, true); ("exact-arith", 8, 11, true) ]
    (quads (findings "Fix_ranged"));
  check_bool "a ranged instance may name it" false
    (Check.Rules.plain_int_scope ~file:"lib/core/gn2_ranged.ml" ~tags:[]);
  check_bool "any other lib module may not" true
    (Check.Rules.plain_int_scope ~file:"lib/server/engine.ml" ~tags:[])

let poly_compare () =
  check_quads "fix_poly findings"
    [ ("poly-compare", 4, 63, true); ("poly-compare", 5, 64, true) ]
    (quads (findings "Fix_poly"))

let suppression () =
  (* the justified allow silences its Hashtbl.iter entirely; the
     justification-free allow is an allow-syntax error and suppresses
     nothing, so the Sys.getenv it covers still fires; the allow with
     nothing beneath it warns *)
  check_quads "fix_allow findings"
    [
      ("det-purity", 10, 22, true);
      ("allow-syntax", 10, 40, true);
      ("unused-allow", 11, 20, false);
    ]
    (quads (findings "Fix_allow"))

let clean_module () =
  check_int "fix_clean findings" 0 (List.length (findings "Fix_clean"))

(* --- rule selection and report plumbing --- *)

let rule_selection () =
  (* disabling det-purity drops its findings but keeps allow hygiene:
     the unused-allow warning for a disabled rule is also dropped *)
  let only_exact = findings ~rules:[ Check.Rules.Exact_arith ] "Fix_det" in
  check_int "det findings with only exact-arith" 0 (List.length only_exact);
  let only_det = findings ~rules:[ Check.Rules.Det_purity ] "Fix_exact" in
  check_int "exact findings with only det-purity" 0 (List.length only_det)

let driver_report () =
  match Check.Driver.run [ cmt_dir ] with
  | Error e -> Alcotest.failf "driver: %s" e
  | Ok report ->
    check_int "modules" 9 report.Check.Driver.modules;
    check_int "errors" 13 (Check.Driver.errors report);
    check_int "warnings" 2 (Check.Driver.warnings report);
    check_bool "not clean" false (Check.Driver.clean report);
    check_int "exit 1" 1 (Check.Driver.exit_code report)

let strict_mode () =
  (* a warnings-only report is clean by default and dirty under strict *)
  match Check.Driver.run [ cmt "Fix_warn" ] with
  | Error e -> Alcotest.failf "driver: %s" e
  | Ok report ->
    check_int "errors" 0 (Check.Driver.errors report);
    check_int "warnings" 1 (Check.Driver.warnings report);
    check_bool "clean by default" true (Check.Driver.clean report);
    check_bool "dirty under strict" false (Check.Driver.clean ~strict:true report);
    check_int "exit 0 default" 0 (Check.Driver.exit_code report);
    check_int "exit 1 strict" 1 (Check.Driver.exit_code ~strict:true report)

let meta_always_on () =
  (* a malformed allow is an error even when its rule is disabled: a
     broken suppression must never pass silently *)
  match Check.Driver.run ~rules:[ Check.Rules.Domain_safety ] [ cmt "Fix_allow" ] with
  | Error e -> Alcotest.failf "driver: %s" e
  | Ok report ->
    check_quads "allow-syntax only"
      [ ("allow-syntax", 10, 40, true) ]
      (quads report.Check.Driver.findings)

let bad_input () =
  (match Check.Driver.run [ "no_such_dir_anywhere" ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected an error for a missing path");
  match Check.Analysis.run_cmt ~rules:Check.Rules.all "check_fixtures/dune" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a non-cmt file"

let json_shape () =
  match Check.Driver.run [ cmt "Fix_det" ] with
  | Error e -> Alcotest.failf "driver: %s" e
  | Ok report ->
    let s = Wire.Json.to_string (Check.Driver.to_json report) in
    check_bool "kind" true (contains_substring s {|"kind":"check-src"|});
    check_bool "schema" true (contains_substring s {|"schema_version":1|});
    check_bool "rule" true (contains_substring s {|"rule":"det-purity"|})

let () =
  Alcotest.run "check"
    [
      ( "rules",
        [
          Alcotest.test_case "det-purity" `Quick det_purity;
          Alcotest.test_case "domain-safety" `Quick domain_safety;
          Alcotest.test_case "exact-arith" `Quick exact_arith;
          Alcotest.test_case "exact-arith: plain ints" `Quick plain_int;
          Alcotest.test_case "poly-compare" `Quick poly_compare;
          Alcotest.test_case "suppression" `Quick suppression;
          Alcotest.test_case "clean module" `Quick clean_module;
          Alcotest.test_case "rule selection" `Quick rule_selection;
        ] );
      ( "driver",
        [
          Alcotest.test_case "aggregate report" `Quick driver_report;
          Alcotest.test_case "strict vs default" `Quick strict_mode;
          Alcotest.test_case "meta errors always on" `Quick meta_always_on;
          Alcotest.test_case "bad input" `Quick bad_input;
          Alcotest.test_case "json shape" `Quick json_shape;
        ] );
    ]
