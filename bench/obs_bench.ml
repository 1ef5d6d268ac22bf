(* Observability overhead: instrumentation must cost (nearly) nothing
   unless metrics were requested.  The engine's hot loop accumulates
   into local mutable stats and folds them into Obs counters once per
   run, so the disabled cost is a handful of atomic flag loads per run.
   This harness quantifies both the disabled primitives and the
   end-to-end simulator delta with metrics off vs on; EXPERIMENTS.md
   "Observability" records representative numbers. *)

open Bechamel

let fpga_area = 100

let taskset =
  let rng = Rng.create ~seed:1234 in
  Model.Generator.draw rng (Model.Generator.unconstrained ~n:10)

let sim_cfg =
  let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
  { cfg with Sim.Engine.horizon = Model.Time.of_units 100 }

let sim_test name =
  Test.make ~name (Staged.stage (fun () -> ignore (Sim.Engine.run sim_cfg taskset)))

let primitive_tests =
  let c = Obs.Counter.make "bench.obs.counter" in
  let tm = Obs.Timer.make "bench.obs.timer" in
  [
    Test.make ~name:"disabled/counter-incr" (Staged.stage (fun () -> Obs.Counter.incr c));
    Test.make ~name:"disabled/counter-add" (Staged.stage (fun () -> Obs.Counter.add c 3));
    Test.make ~name:"disabled/timer-time"
      (Staged.stage (fun () -> Obs.Timer.time tm (fun () -> ())));
    Test.make ~name:"disabled/span-with"
      (Staged.stage (fun () -> Obs.Span.with_ ~name:"bench.obs.span" (fun () -> ())));
  ]

let benchmark tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"redf" tests) in
  Analyze.all ols Toolkit.Instance.monotonic_clock raw

let pretty_time ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

let print_results results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-28s %s/run\n" name (pretty_time ns)
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    rows

let single_estimate results =
  Hashtbl.fold
    (fun _ ols acc ->
      match Analyze.OLS.estimates ols with Some [ ns ] -> Some ns | _ -> acc)
    results None

let run () =
  Bench_env.section "Observability overhead (metrics off vs on)";
  if Bench_env.skip_micro then print_endline "skipped (REDF_SKIP_MICRO is set)"
  else begin
    Printf.printf "\ndisabled instrumentation primitives:\n";
    print_results (benchmark primitive_tests);
    let off = single_estimate (benchmark [ sim_test "sim/metrics-off" ]) in
    Obs.set_enabled true;
    let on = single_estimate (benchmark [ sim_test "sim/metrics-on" ]) in
    Obs.set_enabled false;
    Obs.reset ();
    match (off, on) with
    | Some off, Some on ->
      Printf.printf "\nsimulator (10 tasks, horizon 100 units):\n";
      Printf.printf "  %-28s %s/run\n" "metrics off" (pretty_time off);
      Printf.printf "  %-28s %s/run (%+.1f%% vs off)\n" "metrics on" (pretty_time on)
        ((on -. off) /. off *. 100.0)
    | _ -> print_endline "(no simulator estimate)"
  end
