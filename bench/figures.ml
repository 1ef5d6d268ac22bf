(* Beyond the paper's Figures 3-4 (reproduced by [redf sweep FIG --csv],
   committed as results/fig*.csv, their Section 6 claims asserted by
   test_claims.ml): the 4-task vs 10-task contrast of Figures 3(a)/3(b)
   as a single curve — acceptance vs task count at fixed system
   utilization. *)

let run () =
  Bench_env.section "Extension: acceptance vs task count at fixed US";
  let target_us = 25.0 in
  Printf.printf "US = %.0f, A(H) = 100, unconstrained profile, %d sets per point\n\n" target_us
    Bench_env.samples;
  Printf.printf "%6s %6s %9s %9s %9s %9s\n" "N" "sets" "DP" "GN1" "GN2" "SIM-NF";
  List.iter
    (fun n ->
      let profile = Model.Generator.unconstrained ~n in
      let cfg =
        {
          (Experiment.Sweep.default_config ~profile) with
          Experiment.Sweep.samples = Bench_env.samples;
          targets = [ target_us ];
          seed = Bench_env.seed + n;
          sim_horizon = Bench_env.horizon;
        }
      in
      let t = Experiment.Sweep.run ~jobs:Bench_env.jobs cfg in
      match t.Experiment.Sweep.points with
      | [ p ] ->
        let idx name =
          let rec go i = function
            | [] -> -1
            | m :: _ when m = name -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 t.Experiment.Sweep.method_names
        in
        let acc name = Experiment.Sweep.acceptance t ~method_index:(idx name) p in
        Printf.printf "%6d %6d %9.3f %9.3f %9.3f %9.3f\n" n p.Experiment.Sweep.generated
          (acc "DP") (acc "GN1") (acc "GN2") (acc "SIM-NF")
      | _ -> ())
    [ 2; 3; 4; 6; 8; 10; 15; 20 ];
  Printf.printf
    "\n(the paper's observation: GN1's advantage at small N flips to DP's at large N)\n"
