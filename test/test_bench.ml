(* Tests for the perf gate CI runs ([redf bench-core --compare]): the
   BENCH_core.json reader, the per-row comparator that decides whether
   a row regressed, the tolerance parser, and the committed baseline
   the gate reads. *)

let row ?(mode = "single") ?(truncated = false) analyzer n ns_per_decide =
  { Bench.Env.analyzer; n; mode; ns_per_decide; truncated }

let pp_row ppf r =
  Fmt.pf ppf "%s n=%d %s %d ns%s" r.Bench.Env.analyzer r.Bench.Env.n r.Bench.Env.mode
    r.Bench.Env.ns_per_decide
    (if r.Bench.Env.truncated then " truncated" else "")

let rows_t = Alcotest.(list (testable pp_row ( = )))

let parse_ok doc =
  match Bench.Env.parse_core doc with
  | Ok rows -> rows
  | Error msg -> Alcotest.failf "parse_core: %s" msg

let refused what doc =
  match Bench.Env.parse_core doc with
  | Ok _ -> Alcotest.failf "%s: parsed" what
  | Error msg -> msg

(* --- parse_core --- *)

let roundtrip () =
  let rows =
    [
      row "DP" 8 16_031;
      row "approx[1/10]" 8 7_111;
      row "approx[1/100]" 256 1;
      row ~mode:"batch" "GN2" 64 123_456_789_012;
      row ~truncated:true "GN2" 256 0;
      row ~truncated:true "exact" 3 41_250;
      row {|quote" backslash\ ]}|} 1 max_int;
    ]
  in
  Alcotest.check rows_t "core_doc rows parse back to the nanosecond" rows
    (parse_ok (Bench.Env.core_doc rows))

(* what the schema v2 writer emitted for an empty matrix: it parses as
   JSON, so the refusal can name the version *)
let v2_refused () =
  Alcotest.(check string)
    "names the version" "schema_version 2 is not supported (this reader wants 3)"
    (refused "empty v2" {|{"kind":"bench-core","results":[],"schema_version":2,"unit":"us/decide"}|});
  (* a v2 row holds a fractional microsecond count, which Wire.Json refuses *)
  ignore
    (refused "v2 row"
       {|{"kind":"bench-core","results":[{"analyzer":"DP","n":8,"mode":"single","us_per_decide":39.80,"truncated":false}],"schema_version":2,"unit":"us/decide"}|})

let malformed () =
  List.iter
    (fun (what, doc) -> ignore (refused what doc))
    [
      ("no results array", {|{"kind":"bench-core","schema_version":3,"unit":"ns/decide"}|});
      ("no schema_version", {|{"kind":"bench-core","results":[],"unit":"ns/decide"}|});
      ( "unterminated array",
        {|{"kind":"bench-core","schema_version":3,"results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":1000,"truncated":false}|}
      );
      ( "row without ns_per_decide",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8,"truncated":false}],"schema_version":3}|}
      );
      ( "fractional ns_per_decide",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":39.8,"truncated":false}],"schema_version":3}|}
      );
      ( "string truncated",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":1,"truncated":"no"}],"schema_version":3}|}
      );
    ]

(* --- compare_rows --- *)

let verdict_name c =
  match c.Bench.Core_bench.verdict with
  | Bench.Core_bench.Ok_row ratio -> Printf.sprintf "ok x%.2f" ratio
  | Regressed ratio -> Printf.sprintf "regressed x%.2f" ratio
  | New_row -> "new"
  | Skipped_truncated -> "skipped"

let verdicts () =
  let slack = Bench.Core_bench.abs_slack_ns in
  let baseline =
    [
      row "GN2" 8 100_000;
      row "DP" 8 slack;
      row "GN1" 8 100_000;
      row ~truncated:true "GN1" 64 500_000;
      row "GN2" 64 100_000;
      row "exact" 3 0;
    ]
  in
  let current =
    [
      (* beyond the ratio and the absolute slack *)
      row "GN2" 8 200_000;
      (* twice the baseline, but by no more than the slack *)
      row "DP" 8 (2 * slack);
      (* within the ratio *)
      row "GN1" 8 120_000;
      (* truncated on either side, or a zero baseline *)
      row "GN1" 64 900_000;
      row ~truncated:true "GN2" 64 900_000;
      row "exact" 3 5_000;
      (* no (analyzer, n, mode) match *)
      row ~mode:"batch" "GN2" 8 1_000;
      row "GN2" 9 1_000;
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

(* the baseline holds exactly the matrix's rows, in matrix order, in
   the bytes redf bench-core writes; a zero budget records every row
   without measuring it *)
let committed_baseline () =
  let doc = In_channel.with_open_bin "../results/BENCH_core.json" In_channel.input_all in
  let rows = parse_ok doc in
  Alcotest.(check string) "written by core_doc" doc (Bench.Env.core_doc rows);
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
          Alcotest.test_case "v2 documents are refused" `Quick v2_refused;
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
