(* Tests for the perf gate CI runs ([redf bench-core --compare]): the
   BENCH_core.json reader, the per-row comparator that decides whether
   a row regressed, the stop rule every row is measured under, and the
   committed baseline the gate reads. *)

let row ?(mode = "single") analyzer n ns_per_decide =
  { Bench.Core_bench.analyzer; n; mode; ns_per_decide }

let pp_row ppf (r : Bench.Core_bench.row) =
  Fmt.pf ppf "%s n=%d %s %d ns" r.analyzer r.n r.mode r.ns_per_decide

let rows_t = Alcotest.(list (testable pp_row ( = )))

let parse_ok doc =
  match Bench.Core_bench.parse_core doc with
  | Ok rows -> rows
  | Error msg -> Alcotest.failf "parse_core: %s" msg

let refused what doc =
  match Bench.Core_bench.parse_core doc with
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
      row ~mode:"wide" "GN2" 32 0;
      row "exact" 3 41_250;
      row {|quote" backslash\ ]}|} 1 max_int;
    ]
  in
  Alcotest.check rows_t "core_doc rows parse back to the nanosecond" rows
    (parse_ok (Bench.Core_bench.core_doc rows))

(* what the schema v2 and v3 writers emitted: an empty matrix parses as
   JSON, so the refusal can name the version *)
let old_versions_refused () =
  Alcotest.(check string)
    "names v2" "schema_version 2 is not supported (this reader wants 4)"
    (refused "empty v2" {|{"kind":"bench-core","results":[],"schema_version":2,"unit":"us/decide"}|});
  (* a v2 row holds a fractional microsecond count, which Wire.Json refuses *)
  ignore
    (refused "v2 row"
       {|{"kind":"bench-core","results":[{"analyzer":"DP","n":8,"mode":"single","us_per_decide":39.80,"truncated":false}],"schema_version":2,"unit":"us/decide"}|});
  Alcotest.(check string)
    "names v3" "schema_version 3 is not supported (this reader wants 4)"
    (refused "v3 row"
       {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":34969,"truncated":false}],"schema_version":3,"unit":"ns/decide"}|})

let malformed () =
  List.iter
    (fun (what, doc) -> ignore (refused what doc))
    [
      ("no results array", {|{"kind":"bench-core","schema_version":4,"unit":"ns/decide"}|});
      ("no schema_version", {|{"kind":"bench-core","results":[],"unit":"ns/decide"}|});
      ( "unterminated array",
        {|{"kind":"bench-core","schema_version":4,"results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":1000}|}
      );
      ( "row without ns_per_decide",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8}],"schema_version":4}|}
      );
      ( "fractional ns_per_decide",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":8,"ns_per_decide":39.8}],"schema_version":4}|}
      );
      ( "string n",
        {|{"kind":"bench-core","results":[{"analyzer":"DP","mode":"single","n":"8","ns_per_decide":1}],"schema_version":4}|}
      );
    ]

(* --- compare_rows --- *)

let verdict_name c =
  match c.Bench.Core_bench.verdict with
  | Bench.Core_bench.Ok_row ratio -> Printf.sprintf "ok x%.2f" ratio
  | Regressed ratio -> Printf.sprintf "regressed x%.2f" ratio
  | New_row -> "new"

let verdicts () =
  let slack = Bench.Core_bench.abs_slack_ns in
  let baseline = [ row "GN2" 8 100_000; row "DP" 8 slack; row "GN1" 8 100_000; row "GN2" 64 100_000 ] in
  let current =
    [
      (* beyond the ratio and the absolute slack *)
      row "GN2" 8 200_000;
      (* twice the baseline, but by no more than the slack *)
      row "DP" 8 (2 * slack);
      (* within the ratio *)
      row "GN1" 8 120_000;
      (* exactly the ratio, beyond the slack *)
      row "GN2" 64 150_000;
      (* no (analyzer, n, mode) match *)
      row ~mode:"batch" "GN2" 8 1_000;
      row "GN2" 9 1_000;
    ]
  in
  let compared = Bench.Core_bench.compare_rows ~baseline current in
  Alcotest.(check (list string))
    "verdicts"
    [ "regressed x2.00"; "ok x2.00"; "ok x1.20"; "ok x1.50"; "new"; "new" ]
    (List.map verdict_name compared);
  Alcotest.(check (list string))
    "only the regressed row gates" [ "regressed x2.00" ]
    (List.map verdict_name (Bench.Core_bench.regressions compared))

(* --- the stop rule --- *)

(* a row makes a warm-up call and then calls for 200 ms, however fast
   a decide is: DP at n=8 takes microseconds, so its row decides far
   more often than any fixed cap on calls would let it *)
let row_decides_for_its_time () =
  let counters = List.map (fun name -> Obs.Counter.make name) [ "core.ticks.native"; "core.ticks.wide" ] in
  Obs.reset ();
  Obs.set_enabled true;
  let rows =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Bench.Core_bench.collect ~only:[ ("DP", 8, "single") ] ())
  in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let decides = List.fold_left (fun acc c -> acc + Obs.Counter.value c) 0 counters in
  if decides <= 64 then Alcotest.failf "DP n=8 single decided %d times" decides

(* --- the committed baseline the CI gate compares against --- *)

(* the baseline holds exactly the matrix's rows, in matrix order, in
   the bytes redf bench-core writes *)
let committed_baseline () =
  let doc = In_channel.with_open_bin "../results/BENCH_core.json" In_channel.input_all in
  let rows = parse_ok doc in
  Alcotest.(check string) "written by core_doc" doc (Bench.Core_bench.core_doc rows);
  let key (analyzer, n, mode) = Printf.sprintf "%s n=%d %s" analyzer n mode in
  Alcotest.(check (list string))
    "(analyzer, n, mode) rows"
    (List.map key (Bench.Core_bench.matrix ()))
    (List.map (fun (r : Bench.Core_bench.row) -> key (r.analyzer, r.n, r.mode)) rows)

let () =
  Alcotest.run "bench"
    [
      ( "parse_core",
        [
          Alcotest.test_case "round-trips core_doc" `Quick roundtrip;
          Alcotest.test_case "v2 and v3 documents are refused" `Quick old_versions_refused;
          Alcotest.test_case "malformed documents" `Quick malformed;
        ] );
      ("compare_rows", [ Alcotest.test_case "verdicts" `Quick verdicts ]);
      ("collect", [ Alcotest.test_case "a row decides for 200 ms" `Quick row_decides_for_its_time ]);
      ( "baseline",
        [ Alcotest.test_case "committed BENCH_core.json" `Quick committed_baseline ] );
    ]
