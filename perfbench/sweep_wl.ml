(* sweep-fig3a: the paper's Figure 3(a) acceptance-ratio sweep (4
   tasks, area 100) at the workload seed and a fixed sample count, on
   two worker domains.  The only workload where Model.Generator and
   Sim.Engine do the work; GN2 decides are a predictable smaller share
   of it than on serve-miss. *)

open Common

let figure = Experiment.Figures.Fig3a
let samples = 50  (* tasksets per utilization point *)
let jobs = 2
let reps_per_s = 2
let cold_runs = 7

let config ~seed = Experiment.Figures.config ~samples ~seed figure

let cli_args ~seed =
  [ "sweep"; "fig3a"; "--csv"; "--samples"; string_of_int samples; "--seed"; string_of_int seed;
    "-j"; string_of_int jobs ]

let tasksets (r : Experiment.Sweep.t) =
  List.fold_left (fun n p -> n + p.Experiment.Sweep.generated) 0 r.Experiment.Sweep.points

let end_to_end ~redf ~seed ~seconds =
  let cfg = config ~seed in
  (* set-up: the shipped entry point, cold, a few times *)
  let colds =
    Array.init cold_runs (fun _ ->
        let t0 = now_ns () in
        let out = run_capture redf (cli_args ~seed) in
        (seconds_since t0, out))
  in
  let reps = max 2 (reps_per_s * seconds) in
  let first = Experiment.Sweep.run ~jobs cfg in
  let first_csv = Experiment.Sweep.to_csv first in
  let walls = Array.make reps 0.0 and mismatches = ref 0 in
  for r = 0 to reps - 1 do
    let t0 = now_ns () in
    let res = Experiment.Sweep.run ~jobs cfg in
    walls.(r) <- seconds_since t0;
    if not (String.equal (Experiment.Sweep.to_csv res) first_csv) then incr mismatches
  done;
  let rss_mb = peak_rss_mb "self" in
  let reference = Experiment.Sweep.to_csv (Experiment.Sweep.run ~jobs:1 cfg) in
  if not (String.equal reference first_csv) then incr mismatches;
  let cli_expected = Experiment.Figures.caption figure ^ "\n" ^ reference in
  Array.iter (fun (_, out) -> if not (String.equal out cli_expected) then incr mismatches) colds;
  let per_rep = tasksets first in
  {
    attempted = (reps + 2 + cold_runs) * per_rep;
    failed = !mismatches * per_rep;
    metrics =
      [
        metric "throughput_ops_s" "1/s" (float_of_int (reps * per_rep) /. Array.fold_left ( +. ) 0.0 walls);
        metric "latency_p50_us" "us" (median walls *. 1e6);
        metric "setup_s" "s" (median (Array.map fst colds));
        metric "peak_rss_mb" "MB" rss_mb;
      ];
    notes =
      [
        Printf.sprintf "%d repetitions of %d tasksets x %d methods on %d workers; p50 over n=%d repetitions, slowest %.0f us"
          reps per_rep (List.length cfg.Experiment.Sweep.methods) jobs reps
          (Array.fold_left Float.max 0.0 walls *. 1e6);
        Printf.sprintf "setup_s is the median of %d cold `redf %s` runs: %s" cold_runs
          (String.concat " " (cli_args ~seed))
          (String.concat " " (Array.to_list (Array.map (fun (s, _) -> Printf.sprintf "%.4f" s) colds)));
      ];
  }

(* --- traced replay --- *)

(* The root span is one [Experiment.Sweep.run] on [jobs] workers.  The
   layers are then replayed serially on the same inputs: every taskset
   is drawn again from the generator the sweep derives for it (seed ->
   point -> sample, via Parallel.Det), decided by each analytic method
   and simulated under each policy.  Acceptance counts must match the
   root's. *)
let traced ~seed ~spans_path =
  let cfg = config ~seed in
  ignore (Experiment.Sweep.run ~jobs cfg);
  let spans = Spans.create () in
  let root = Spans.fresh_id spans in
  let result =
    Spans.record spans ~id:root ~name:"experiment.sweep.run" ~parent:(-1) ~req:0 (fun () ->
        Experiment.Sweep.run ~jobs cfg)
  in
  let t_bare = now_ns () in
  let serial = Experiment.Sweep.run ~jobs:1 cfg in
  let bare_wall = seconds_since t_bare in
  let t0 = now_ns () in
  let targets = Array.of_list cfg.Experiment.Sweep.targets in
  let profile = cfg.Experiment.Sweep.profile in
  let point_gens = Parallel.Det.gens (Rng.create ~seed:cfg.Experiment.Sweep.seed) (Array.length targets) in
  let drawn =
    Array.mapi
      (fun pi g ->
        let gens = Parallel.Det.gens g samples in
        Array.mapi
          (fun si rng ->
            Spans.record spans ~name:"model.generator.draw" ~parent:root ~req:((pi * samples) + si)
              (fun () -> Model.Generator.draw_with_target_us rng profile ~target_us:targets.(pi)))
          gens)
      point_gens
  in
  let live = Array.map (fun row -> Array.of_list (List.filter_map Fun.id (Array.to_list row))) drawn in
  let all_live = Array.concat (Array.to_list live) in
  let fpga_area = profile.Model.Generator.fpga_area in
  let parent = ref root and req = ref 0 in
  let events = ref 0 in
  let accepted =
    List.map
      (function
        | Experiment.Sweep.Analytic a ->
          let traced = Spans.traced_analyzer spans ~parent ~req a in
          Array.map Core.Verdict.accepted (traced.Core.Analyzer.decide_all ~fpga_area all_live)
        | Experiment.Sweep.Simulation (name, policy) ->
          let span =
            "sim.engine." ^ if String.lowercase_ascii name = "sim-nf" then "nf" else "fkf"
          in
          let sim_cfg =
            { (Sim.Engine.default_config ~fpga_area ~policy) with
              Sim.Engine.horizon = cfg.Experiment.Sweep.sim_horizon }
          in
          Array.mapi
            (fun i ts ->
              let r = Spans.record spans ~name:span ~parent:root ~req:i (fun () -> Sim.Engine.run sim_cfg ts) in
              events := !events + r.Sim.Engine.stats.Sim.Engine.events_popped;
              r.Sim.Engine.outcome = Sim.Engine.No_miss)
            all_live)
      cfg.Experiment.Sweep.methods
  in
  let wall = seconds_since t0 in
  Spans.write_json spans spans_path;
  (* acceptance counts per point and method, against the root's *)
  let mismatches = ref 0 in
  let offset = ref 0 in
  List.iteri
    (fun pi (p : Experiment.Sweep.point) ->
      let n = Array.length live.(pi) in
      if n <> p.Experiment.Sweep.generated then incr mismatches;
      List.iteri
        (fun mi acc ->
          let count = ref 0 in
          for i = !offset to !offset + n - 1 do if acc.(i) then incr count done;
          if !count <> p.Experiment.Sweep.accepted.(mi) then incr mismatches)
        accepted;
      offset := !offset + n)
    result.Experiment.Sweep.points;
  if not (String.equal (Experiment.Sweep.to_csv serial) (Experiment.Sweep.to_csv result)) then
    incr mismatches;
  let self = Spans.self_times spans in
  let root_wall = fst (Spans.lookup (Spans.totals spans) "experiment.sweep.run") in
  let ntasksets = Array.length all_live in
  let layer name = fst (Spans.lookup self name) in
  let busy =
    List.fold_left
      (fun acc n -> acc +. layer n)
      0.0
      [ "model.generator.draw"; "sim.engine.nf"; "sim.engine.fkf"; "core.analyzer.dp";
        "core.analyzer.gn1"; "core.analyzer.gn2"; "core.analyzer.nec" ]
  in
  let draws = snd (Spans.lookup self "model.generator.draw") in
  ( {
      attempted = ntasksets;
      failed = !mismatches;
      metrics =
        [
          metric "model.generator.draw_us" "us" (Common.mean_or_zero (layer "model.generator.draw" /. 1e3) draws);
          metric "sim.engine.nf_us" "us" (Common.mean_or_zero (layer "sim.engine.nf" /. 1e3) ntasksets);
          metric "sim.engine.fkf_us" "us" (Common.mean_or_zero (layer "sim.engine.fkf" /. 1e3) ntasksets);
          metric "sim.engine.events" "count" (float_of_int !events);
          metric "parallel.pool.efficiency" "ratio" (busy /. (float_of_int jobs *. root_wall));
          metric "experiment.sweep.unaccounted_s" "s" ((root_wall -. (busy /. float_of_int jobs)) /. 1e9);
          metric "trace.overhead_ratio" "ratio" (wall /. bare_wall);
        ]
        @ Spans.analyzer_metrics spans;
      notes =
        [ Printf.sprintf "root Sweep.run on %d workers %.4f s; serial layer replay %.4f s; serial Sweep.run %.4f s"
            jobs (root_wall /. 1e9) wall bare_wall ];
    },
    [] )
