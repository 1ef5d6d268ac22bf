(* Tests for the perf gate CI runs ([redf bench-core --compare]): the
   BENCH_core.json reader, the per-row comparator that decides whether
   a row regressed, the tolerance parser, and the committed baseline
   the gate reads. *)

let row ?(mode = "single") ?(truncated = false) analyzer n us_per_decide =
  { Bench.Env.analyzer; n; mode; us_per_decide; truncated }

let rows_t =
  Alcotest.(list (testable (fun ppf r -> Fmt.string ppf (Bench.Env.core_row_to_json r)) ( = )))

let parse_ok doc =
  match Bench.Env.parse_core doc with
  | Ok rows -> rows
  | Error msg -> Alcotest.failf "parse_core: %s" msg

(* --- parse_core --- *)

let roundtrip () =
  let rows =
    [
      row "DP" 8 16.03;
      row "approx[1/10]" 8 7.11;
      row "approx[1/100]" 256 0.5;
      row ~mode:"batch" "GN2" 64 123456.78;
      row ~truncated:true "GN2" 256 0.0;
      row ~truncated:true "exact" 3 41.25;
    ]
  in
  Alcotest.check rows_t "core_doc rows parse back" rows (parse_ok (Bench.Env.core_doc rows))

let v1_defaults () =
  Alcotest.check rows_t "mode single, not truncated"
    [ row "GN1" 8 81.47 ]
    (parse_ok
       {|{"kind":"bench-core","results":[{"analyzer":"GN1","n":8,"us_per_decide":81.47}],"schema_version":1}|})

let malformed () =
  List.iter
    (fun (what, doc) ->
      match Bench.Env.parse_core doc with
      | Ok _ -> Alcotest.failf "%s: parsed" what
      | Error _ -> ())
    [
      ("no results array", {|{"kind":"bench-core","schema_version":2}|});
      ("unterminated array", {|{"results":[{"analyzer":"DP","n":8,"us_per_decide":1.00}|});
      ("row without us_per_decide", {|{"results":[{"analyzer":"DP","n":8,"mode":"single"}]}|});
    ]

(* --- compare_rows --- *)

let verdict_name c =
  match c.Bench.Core_bench.verdict with
  | Bench.Core_bench.Ok_row ratio -> Printf.sprintf "ok x%.2f" ratio
  | Regressed ratio -> Printf.sprintf "regressed x%.2f" ratio
  | New_row -> "new"
  | Skipped_truncated -> "skipped"

let verdicts () =
  let slack = Bench.Core_bench.abs_slack_us in
  let baseline =
    [
      row "GN2" 8 100.0;
      row "DP" 8 slack;
      row "GN1" 8 100.0;
      row ~truncated:true "GN1" 64 500.0;
      row "GN2" 64 100.0;
      row "exact" 3 0.0;
    ]
  in
  let current =
    [
      (* beyond the ratio and the absolute slack *)
      row "GN2" 8 200.0;
      (* twice the baseline, but by no more than the slack *)
      row "DP" 8 (2.0 *. slack);
      (* within the ratio *)
      row "GN1" 8 120.0;
      (* truncated on either side, or a zero baseline *)
      row "GN1" 64 900.0;
      row ~truncated:true "GN2" 64 900.0;
      row "exact" 3 5.0;
      (* no (analyzer, n, mode) match *)
      row ~mode:"batch" "GN2" 8 1.0;
      row "GN2" 9 1.0;
    ]
  in
  let compared = Bench.Core_bench.compare_rows ~tolerance:1.5 ~baseline current in
  Alcotest.(check (list string))
    "verdicts"
    [ "regressed x2.00"; "ok x2.00"; "ok x1.20"; "skipped"; "skipped"; "skipped"; "new"; "new" ]
    (List.map verdict_name compared);
  Alcotest.(check (list string))
    "only the regressed row gates" [ "regressed x2.00" ]
    (List.map verdict_name (Bench.Core_bench.regressions compared))

let tolerance () =
  let parsed = Alcotest.(check (result (float 0.0) pass)) in
  parsed "1.5x" (Ok 1.5) (Bench.Core_bench.parse_tolerance "1.5x");
  parsed "1.5" (Ok 1.5) (Bench.Core_bench.parse_tolerance "1.5");
  parsed "below 1.0" (Error "") (Bench.Core_bench.parse_tolerance "0.9");
  parsed "not a number" (Error "") (Bench.Core_bench.parse_tolerance "abc")

(* --- the committed baseline the CI gate compares against --- *)

(* the baseline holds exactly the matrix's rows, in matrix order; a
   zero budget records every row without measuring it *)
let committed_baseline () =
  let rows = parse_ok (In_channel.with_open_bin "../results/BENCH_core.json" In_channel.input_all) in
  let key r = Printf.sprintf "%s n=%d %s" r.Bench.Env.analyzer r.Bench.Env.n r.Bench.Env.mode in
  let matrix = Bench.Core_bench.collect ~budget_ms:0 () in
  Alcotest.(check (list string)) "(analyzer, n, mode) rows" (List.map key matrix) (List.map key rows);
  Alcotest.(check bool) "none truncated" false (List.exists (fun r -> r.Bench.Env.truncated) rows)

let () =
  Alcotest.run "bench"
    [
      ( "parse_core",
        [
          Alcotest.test_case "round-trips core_doc" `Quick roundtrip;
          Alcotest.test_case "v1 rows get v2 defaults" `Quick v1_defaults;
          Alcotest.test_case "malformed documents" `Quick malformed;
        ] );
      ( "compare_rows",
        [
          Alcotest.test_case "verdicts" `Quick verdicts;
          Alcotest.test_case "tolerance" `Quick tolerance;
        ] );
      ( "baseline",
        [ Alcotest.test_case "committed BENCH_core.json" `Quick committed_baseline ] );
    ]
