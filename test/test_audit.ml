(* Tests for the audit subsystem: one case per lint diagnostic, the
   diagnostic renderers (human and JSON), the counterexample shrinker,
   and the cross-analyzer consistency auditor — including the required
   negative control, a deliberately-unsound analyzer stub the auditor
   must flag. *)

module D = Audit.Diagnostic
module Lint = Audit.Lint
module Consistency = Audit.Consistency
module Driver = Audit.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ts = Core_helpers.taskset
let fpga_area = 10

let rules ds = List.map (fun (d : D.t) -> d.D.rule) ds
let fires rule ds = List.mem rule (rules ds)

let severity_of rule ds =
  match List.find_opt (fun (d : D.t) -> d.D.rule = rule) ds with
  | Some d -> Some d.D.severity
  | None -> None

(* --- lint rules, one by one --- *)

let clean_set_lints_clean () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "1", "5", "5", 4); ("b", "2", "8", "8", 3) ]) in
  check_int "no diagnostics" 0 (List.length ds)

let exec_exceeds_window () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "6", "5", "5", 4) ]) in
  check_bool "fires" true (fires "exec-exceeds-window" ds);
  check_bool "is error" true (severity_of "exec-exceeds-window" ds = Some D.Error);
  (* C > T but C <= D is also a long-run overload *)
  let ds = Lint.lint ~fpga_area (ts [ ("a", "6", "7", "5", 4) ]) in
  check_bool "fires via period" true (fires "exec-exceeds-window" ds)

let device_overloaded () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "4", "5", "5", 8); ("b", "4", "5", "5", 8) ]) in
  check_bool "fires" true (fires "device-overloaded" ds);
  check_bool "is error" true (severity_of "device-overloaded" ds = Some D.Error)

let clique_overloaded () =
  (* pairwise exclusive (6+6 > 10), combined serial demand 1.6 > 1, but
     US = 8.0 does not overload the device on its own *)
  let ds = Lint.lint ~fpga_area (ts [ ("a", "4", "5", "5", 6); ("b", "4", "5", "5", 6) ]) in
  check_bool "fires" true (fires "exclusion-clique-overload" ds);
  check_bool "not device-overloaded" false (fires "device-overloaded" ds)

let wider_than_device () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "1", "5", "5", 11); ("b", "1", "5", "5", 2) ]) in
  check_bool "fires" true (fires "task-wider-than-device" ds);
  check_bool "is error" true (severity_of "task-wider-than-device" ds = Some D.Error);
  (* the analyzers indeed reject vacuously on such a set *)
  check_bool "DP rejects vacuously" false
    (Core.Analyzer.(accepts dp) ~fpga_area (ts [ ("a", "1", "5", "5", 11) ]))

let deadline_exceeds_period () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "1", "9", "5", 4); ("b", "1", "5", "5", 2) ]) in
  check_bool "fires" true (fires "deadline-exceeds-period" ds);
  check_bool "is warning" true (severity_of "deadline-exceeds-period" ds = Some D.Warning)

let degenerate_utilization () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "5", "5", "5", 4); ("b", "1", "5", "5", 2) ]) in
  check_bool "fires" true (fires "degenerate-utilization" ds);
  check_bool "is warning" true (severity_of "degenerate-utilization" ds = Some D.Warning)

let duplicate_names () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "1", "5", "5", 4); ("a", "1", "8", "8", 2) ]) in
  check_bool "fires" true (fires "duplicate-task-name" ds);
  (* empty names never count as duplicates *)
  let ds = Lint.lint ~fpga_area (ts [ ("", "1", "5", "5", 4); ("", "1", "8", "8", 2) ]) in
  check_bool "empty names exempt" false (fires "duplicate-task-name" ds);
  check_bool "but reported as empty" true (fires "empty-task-name" ds)

let negligible_utilization () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "0.001", "20", "20", 1); ("b", "1", "5", "5", 2) ]) in
  check_bool "fires" true (fires "negligible-utilization" ds);
  check_bool "is info" true (severity_of "negligible-utilization" ds = Some D.Info)

let single_task () =
  let ds = Lint.lint ~fpga_area (ts [ ("a", "1", "5", "5", 4) ]) in
  check_bool "fires" true (fires "single-task" ds);
  check_bool "is info" true (severity_of "single-task" ds = Some D.Info)

let hyperperiod_cap () =
  let set = ts [ ("a", "1", "7", "7", 2); ("b", "1", "11", "11", 2) ] in
  let ds = Lint.lint ~hyperperiod_cap:(Model.Time.of_units 50) ~fpga_area set in
  check_bool "fires under small cap" true (fires "hyperperiod-exceeds-cap" ds);
  let ds = Lint.lint ~fpga_area set in
  check_bool "silent under default cap" false (fires "hyperperiod-exceeds-cap" ds)

let clean_semantics () =
  let warn_only = [ D.warning ~rule:"w" "m" ] in
  check_bool "warnings pass by default" true (Lint.clean warn_only);
  check_bool "warnings fail strict" false (Lint.clean ~strict:true warn_only);
  check_bool "errors always fail" false (Lint.clean [ D.error ~rule:"e" "m" ]);
  check_bool "infos pass strict" true (Lint.clean ~strict:true [ D.info ~rule:"i" "m" ])

(* --- diagnostic rendering --- *)

let renders () =
  let d = D.warning ~task_index:1 ~rule:"some-rule" "quote \" and\nnewline" in
  let human = Format.asprintf "%a" D.pp d in
  check_bool "human names severity" true (String.length human > 7 && String.sub human 0 7 = "warning");
  let json =
    Wire.Json.to_string (Driver.to_json { Driver.fpga_area; lint = [ d ]; findings = [] })
  in
  let contains sub s =
    let n = String.length sub in
    let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
    scan 0
  in
  check_bool "json has rule" true (contains {|"rule":"some-rule"|} json);
  check_bool "json has 1-based task" true (contains {|"task":2|} json);
  check_bool "json escapes quotes" true (contains {|quote \" and|} json);
  check_bool "json escapes newlines" true (contains {|and\nnewline|} json)

let ordering () =
  let ds = [ D.info ~rule:"i" "m"; D.error ~rule:"e" "m"; D.warning ~rule:"w" "m" ] in
  Alcotest.(check (list string)) "sorted most severe first" [ "e"; "w"; "i" ]
    (rules (D.by_severity ds))

(* --- consistency auditor --- *)

(* three tasks of width 4 on a device of 10: every lint rule passes,
   but only two fit at once and the set misses deadlines *)
let contended = ts [ ("a", "4", "5", "5", 4); ("b", "4", "5", "5", 4); ("c", "4", "5", "5", 4) ]

let config = Consistency.default_config ~fpga_area

let real_analyzers_consistent () =
  check_int "no findings beyond info" 0
    (List.length
       (List.filter
          (fun (f : Consistency.finding) -> f.Consistency.severity <> D.Info)
          (Consistency.audit config contended)));
  List.iter
    (fun name ->
      let set = ts [ (name ^ "1", "1.26", "7", "7", 9); (name ^ "2", "0.95", "5", "5", 6) ] in
      check_int (name ^ " table clean") 0 (List.length (Consistency.audit config set)))
    [ "t" ]

let broken_analyzer_flagged () =
  let broken =
    Consistency.always_accept ~name:"BROKEN" ~sound_for:[ Consistency.Edf_nf; Consistency.Edf_fkf ]
  in
  let findings = Consistency.audit ~analyzers:[ broken ] config contended in
  let unsound =
    List.filter (fun (f : Consistency.finding) -> f.Consistency.rule = "unsound-accept") findings
  in
  check_bool "flagged" true (unsound <> []);
  List.iter
    (fun (f : Consistency.finding) ->
      check_bool "is error" true (f.Consistency.severity = D.Error);
      check_bool "names the analyzer" true (f.Consistency.analyzer = Some "BROKEN");
      check_bool "has a counterexample" true (f.Consistency.counterexample <> None))
    unsound;
  (* the emitted fixture is a valid CSV that still exhibits the miss *)
  match List.find_map Consistency.fixture unsound with
  | None -> Alcotest.fail "no fixture emitted"
  | Some csv ->
    let shrunk = Model.Taskset.of_csv csv in
    check_bool "fixture still misses" false
      (Sim.Engine.schedulable
         (Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf)
         shrunk);
    check_bool "fixture no larger" true
      (Model.Taskset.size shrunk <= Model.Taskset.size contended)

let sound_for_wiring () =
  (* Theorem 3: a GN2 ACCEPT claims EDF-NF schedulability too; DP covers
     both via Danne's dominance; GN1 only EDF-NF *)
  check_bool "GN2 covers EDF-NF" true
    (List.mem Consistency.Edf_nf Consistency.gn2.Consistency.sound_for);
  check_bool "GN2 covers EDF-FkF" true
    (List.mem Consistency.Edf_fkf Consistency.gn2.Consistency.sound_for);
  check_bool "DP covers both" true
    (List.mem Consistency.Edf_nf Consistency.dp.Consistency.sound_for
    && List.mem Consistency.Edf_fkf Consistency.dp.Consistency.sound_for);
  check_bool "GN1 covers EDF-NF only" true
    (Consistency.gn1.Consistency.sound_for = [ Consistency.Edf_nf ])

let shrinker_minimizes () =
  let exhibits set =
    Model.Taskset.fits set ~fpga_area
    && not
         (Sim.Engine.schedulable
            (Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf)
            set)
  in
  let shrunk = Consistency.shrink_counterexample ~exhibits contended in
  check_bool "still exhibits" true (exhibits shrunk);
  check_bool "no larger" true (Model.Taskset.size shrunk <= Model.Taskset.size contended);
  (* 1-minimal: removing any task loses the failure *)
  let n = Model.Taskset.size shrunk in
  if n > 1 then
    List.iteri
      (fun i () ->
        let without =
          Model.Taskset.of_list
            (List.filteri (fun j _ -> j <> i) (Model.Taskset.to_list shrunk))
        in
        check_bool "task-removal minimal" false (exhibits without))
      (List.init n (fun _ -> ()))

let wider_than_device_skips_simulation () =
  let findings = Consistency.audit config (ts [ ("w", "1", "5", "5", 99) ]) in
  check_bool "simulation skipped" true
    (List.exists
       (fun (f : Consistency.finding) -> f.Consistency.rule = "simulation-skipped")
       findings);
  check_bool "info only" true
    (List.for_all (fun (f : Consistency.finding) -> f.Consistency.severity = D.Info) findings)

(* --- driver --- *)

let driver_exit_codes () =
  let good = Driver.run ~fpga_area (ts [ ("a", "1", "5", "5", 4) ]) in
  check_int "clean exit 0" 0 (Driver.exit_code good);
  let bad = Driver.run ~fpga_area (ts [ ("a", "6", "5", "5", 4) ]) in
  check_int "error exit 2" 2 (Driver.exit_code bad);
  let warn = Driver.lint_only ~fpga_area (ts [ ("a", "1", "9", "5", 4); ("b", "1", "5", "5", 2) ]) in
  check_int "warning exit 0" 0 (Driver.exit_code warn);
  check_int "warning exit 2 strict" 2 (Driver.exit_code ~strict:true warn)

let driver_merges_diagnostics () =
  let broken = Consistency.always_accept ~name:"BROKEN" ~sound_for:[ Consistency.Edf_nf ] in
  let report =
    Driver.run
      ~analyzers:(Consistency.paper_analyzers @ [ broken ])
      ~fpga_area contended
  in
  let ds = Driver.diagnostics report in
  check_bool "lint section present" true (ds <> []);
  check_bool "unsound accept surfaced" true (fires "unsound-accept" ds);
  check_int "exit 2" 2 (Driver.exit_code report)

let () =
  Alcotest.run "audit"
    [
      ( "lint rules",
        [
          Alcotest.test_case "clean set" `Quick clean_set_lints_clean;
          Alcotest.test_case "exec-exceeds-window" `Quick exec_exceeds_window;
          Alcotest.test_case "device-overloaded" `Quick device_overloaded;
          Alcotest.test_case "exclusion-clique-overload" `Quick clique_overloaded;
          Alcotest.test_case "task-wider-than-device" `Quick wider_than_device;
          Alcotest.test_case "deadline-exceeds-period" `Quick deadline_exceeds_period;
          Alcotest.test_case "degenerate-utilization" `Quick degenerate_utilization;
          Alcotest.test_case "duplicate-task-name" `Quick duplicate_names;
          Alcotest.test_case "negligible-utilization" `Quick negligible_utilization;
          Alcotest.test_case "single-task" `Quick single_task;
          Alcotest.test_case "hyperperiod-exceeds-cap" `Quick hyperperiod_cap;
          Alcotest.test_case "clean semantics" `Quick clean_semantics;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "rendering and escaping" `Quick renders;
          Alcotest.test_case "severity ordering" `Quick ordering;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "real analyzers are consistent" `Quick real_analyzers_consistent;
          Alcotest.test_case "broken analyzer flagged" `Quick broken_analyzer_flagged;
          Alcotest.test_case "sound-for wiring (Theorem 3)" `Quick sound_for_wiring;
          Alcotest.test_case "shrinker 1-minimality" `Quick shrinker_minimizes;
          Alcotest.test_case "oversized task skips simulation" `Quick wider_than_device_skips_simulation;
        ] );
      ( "driver",
        [
          Alcotest.test_case "exit codes" `Quick driver_exit_codes;
          Alcotest.test_case "merged diagnostics" `Quick driver_merges_diagnostics;
        ] );
    ]
