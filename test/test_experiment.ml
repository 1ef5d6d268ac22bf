(* Tests for the acceptance-ratio sweep harness. *)

let check_bool = Alcotest.(check bool)

let tiny_config conditioning =
  let profile = Model.Generator.unconstrained ~n:4 in
  {
    (Experiment.Sweep.default_config ~profile) with
    Experiment.Sweep.samples = 40;
    targets = [ 20.0; 40.0; 60.0 ];
    sim_horizon = Model.Time.of_units 100;
    conditioning;
  }

let ratios_in_range () =
  let t = Experiment.Sweep.run (tiny_config Experiment.Sweep.Scaled) in
  List.iter
    (fun p ->
      List.iteri
        (fun mi _ ->
          let r = Experiment.Sweep.acceptance t ~method_index:mi p in
          check_bool "ratio in [0,1]" true (r >= 0.0 && r <= 1.0))
        t.Experiment.Sweep.method_names)
    t.Experiment.Sweep.points;
  Alcotest.(check int) "one point per target" 3 (List.length t.Experiment.Sweep.points)

(* soundness as an integration fact: per point, the analytic accept
   counts can never exceed the EDF-NF simulation accept count, because
   every analytic accept implies true schedulability *)
let analytic_below_simulation () =
  let t = Experiment.Sweep.run (tiny_config Experiment.Sweep.Scaled) in
  let idx name =
    let rec go i = function
      | [] -> Alcotest.fail ("missing method " ^ name)
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 t.Experiment.Sweep.method_names
  in
  let sim_nf = idx "SIM-NF" and sim_fkf = idx "SIM-FkF" in
  List.iter
    (fun p ->
      let a = p.Experiment.Sweep.accepted in
      check_bool "DP <= SIM-NF" true (a.(idx "DP") <= a.(sim_nf));
      check_bool "GN1 <= SIM-NF" true (a.(idx "GN1") <= a.(sim_nf));
      check_bool "GN2 <= SIM-NF" true (a.(idx "GN2") <= a.(sim_nf));
      (* DP and GN2 are also sound for EDF-FkF *)
      check_bool "DP <= SIM-FkF" true (a.(idx "DP") <= a.(sim_fkf));
      check_bool "GN2 <= SIM-FkF" true (a.(idx "GN2") <= a.(sim_fkf));
      (* and Danne's dominance: NF accepts at least as much as FkF *)
      check_bool "SIM-FkF <= SIM-NF" true (a.(sim_fkf) <= a.(sim_nf)))
    t.Experiment.Sweep.points

let deterministic () =
  let a = Experiment.Sweep.run (tiny_config Experiment.Sweep.Scaled) in
  let b = Experiment.Sweep.run (tiny_config Experiment.Sweep.Scaled) in
  check_bool "same csv" true (Experiment.Sweep.to_csv a = Experiment.Sweep.to_csv b)

let binned_mode () =
  let t = Experiment.Sweep.run (tiny_config Experiment.Sweep.Binned) in
  let total_generated =
    List.fold_left (fun acc p -> acc + p.Experiment.Sweep.generated) 0 t.Experiment.Sweep.points
  in
  (* binned draws may fall outside all buckets, but some must land *)
  check_bool "some tasksets bucketed" true (total_generated > 0);
  check_bool "not more than drawn" true (total_generated <= 40 * 3)

let outputs_wellformed () =
  let t = Experiment.Sweep.run (tiny_config Experiment.Sweep.Scaled) in
  let csv = Experiment.Sweep.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows" 4 (List.length lines);
  check_bool "csv header" true
    (String.length (List.hd lines) > 0
     && String.sub (List.hd lines) 0 9 = "target_us");
  let table = Experiment.Sweep.to_table t in
  check_bool "table mentions methods" true (String.length table > 0);
  let plot = Experiment.Sweep.to_ascii_plot t in
  check_bool "plot has legend" true (String.contains plot '=')

let figures_configs () =
  List.iter
    (fun figure ->
      let cfg = Experiment.Figures.config ~samples:5 figure in
      check_bool "has targets" true (cfg.Experiment.Sweep.targets <> []);
      check_bool "valid profile" true
        (Model.Generator.validate cfg.Experiment.Sweep.profile = Ok ());
      check_bool "id well-formed" true (String.length (Experiment.Figures.id figure) = 5))
    Experiment.Figures.all

let () =
  Alcotest.run "experiment"
    [
      ( "sweep",
        [
          Alcotest.test_case "ratios in range" `Quick ratios_in_range;
          Alcotest.test_case "analytic below simulation" `Quick analytic_below_simulation;
          Alcotest.test_case "deterministic" `Quick deterministic;
          Alcotest.test_case "binned mode" `Quick binned_mode;
          Alcotest.test_case "outputs well-formed" `Quick outputs_wellformed;
        ] );
      ("figures", [ Alcotest.test_case "configs" `Quick figures_configs ]);
    ]
