(* Micro-benchmark for the parallel subsystem (lib/parallel): wall-clock
   scaling and byte-level determinism of the three parallelised hot
   paths — utilization sweeps, consistency audits and the exhaustive
   release-offset search.

   This module deliberately goes through the public [?jobs] entry points
   rather than the pool primitives: the end-to-end paths are what the
   revised EXPERIMENTS.md runtime estimates are based on. *)

let cores = Domain.recommended_domain_count ()

let job_counts = List.sort_uniq compare (List.filter (fun j -> j >= 1) [ 1; 2; 4; cores ])

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* one row per (path, jobs): seconds and speedup vs the serial run *)
let csv_rows : (string * int * float * float) list ref = ref []

let report path runs =
  let serial =
    match List.assoc_opt 1 runs with
    | Some s -> s
    | None -> (match runs with (_, s) :: _ -> s | [] -> 1.0)
  in
  List.iter
    (fun (jobs, seconds) ->
      let speedup = if seconds > 0.0 then serial /. seconds else 0.0 in
      csv_rows := (path, jobs, seconds, speedup) :: !csv_rows;
      Printf.printf "  %-12s jobs=%-2d %8.2f s   speedup %.2fx\n" path jobs seconds speedup)
    runs

let check_identical label rendered =
  match rendered with
  | [] | [ _ ] -> ()
  | (_, reference) :: rest ->
    let ok = List.for_all (fun (_, r) -> String.equal r reference) rest in
    Printf.printf "  %-12s output byte-identical across job counts: %s\n" label
      (if ok then "yes" else "NO (determinism violation)")

let sweep_bench () =
  let cfg =
    Experiment.Figures.config
      ~samples:(min 100 Bench_env.samples)
      ~seed:Bench_env.seed
      ~sim_horizon:(Model.Time.of_units 200)
      Experiment.Figures.Fig3a
  in
  let runs =
    List.map (fun jobs -> (jobs, time (fun () -> Experiment.Sweep.run ~jobs cfg))) job_counts
  in
  report "sweep" (List.map (fun (j, (_, s)) -> (j, s)) runs);
  check_identical "sweep" (List.map (fun (j, (t, _)) -> (j, Experiment.Sweep.to_csv t)) runs)

let audit_taskset =
  (* deliberately contended: spatially heavy on a small device so the
     cross-check exercises misses, shrinking and lemma replays *)
  Model.Taskset.of_list
    [
      Model.Task.make ~name:"a" ~exec:(Model.Time.of_units 2) ~deadline:(Model.Time.of_units 4)
        ~period:(Model.Time.of_units 4) ~area:4 ();
      Model.Task.make ~name:"b" ~exec:(Model.Time.of_units 2) ~deadline:(Model.Time.of_units 5)
        ~period:(Model.Time.of_units 5) ~area:5 ();
      Model.Task.make ~name:"c" ~exec:(Model.Time.of_units 3) ~deadline:(Model.Time.of_units 6)
        ~period:(Model.Time.of_units 6) ~area:5 ();
    ]

let audit_bench () =
  let runs =
    List.map
      (fun jobs -> (jobs, time (fun () -> Audit.Driver.run ~jobs ~fpga_area:10 audit_taskset)))
      job_counts
  in
  report "audit" (List.map (fun (j, (_, s)) -> (j, s)) runs);
  check_identical "audit"
    (List.map (fun (j, (r, _)) -> (j, Wire.Json.to_string (Audit.Driver.to_json r))) runs)

let exhaustive_taskset =
  (* the no-critical-instant witness from the test suite: synchronous
     release is schedulable but some offset assignment misses *)
  Model.Taskset.of_list
    [
      Model.Task.make ~name:"t0" ~exec:(Model.Time.of_units 3) ~deadline:(Model.Time.of_units 3)
        ~period:(Model.Time.of_units 3) ~area:6 ();
      Model.Task.make ~name:"t1" ~exec:(Model.Time.of_units 1) ~deadline:(Model.Time.of_units 3)
        ~period:(Model.Time.of_units 3) ~area:4 ();
      Model.Task.make ~name:"t2" ~exec:(Model.Time.of_units 1) ~deadline:(Model.Time.of_units 2)
        ~period:(Model.Time.of_units 2) ~area:4 ();
    ]

let exhaustive_bench () =
  let grid = Model.Time.of_ticks 500 in
  let runs =
    List.map
      (fun jobs ->
        ( jobs,
          time (fun () ->
              Sim.Exhaustive.search ~grid ~jobs ~fpga_area:10 ~policy:Sim.Policy.edf_nf
                exhaustive_taskset) ))
      job_counts
  in
  report "exhaustive" (List.map (fun (j, (_, s)) -> (j, s)) runs);
  let render = function
    | Sim.Exhaustive.Schedulable_all_offsets { combinations } ->
      Printf.sprintf "schedulable:%d" combinations
    | Sim.Exhaustive.Miss_with_offsets { offsets; miss = _ } ->
      "miss:" ^ String.concat "," (List.map Model.Time.to_string offsets)
    | Sim.Exhaustive.Too_many_combinations { combinations } ->
      Printf.sprintf "too-many:%d" combinations
    | Sim.Exhaustive.Hyperperiod_too_large -> "hyperperiod"
  in
  check_identical "exhaustive" (List.map (fun (j, (o, _)) -> (j, render o)) runs)

let run () =
  Bench_env.section "Parallel subsystem: deterministic domain fan-out";
  Printf.printf "recommended domain count on this machine: %d\n" cores;
  if cores = 1 then
    Printf.printf
      "(single hardware thread: speedups cannot exceed 1x here; the point of this\n\
      \ run is the determinism check — outputs must not depend on the job count)\n";
  Printf.printf "job counts exercised: %s\n\n"
    (String.concat ", " (List.map string_of_int job_counts));
  sweep_bench ();
  audit_bench ();
  exhaustive_bench ();
  let b = Buffer.create 256 in
  Buffer.add_string b "path,jobs,seconds,speedup\n";
  List.iter
    (fun (path, jobs, seconds, speedup) ->
      Buffer.add_string b (Printf.sprintf "%s,%d,%.4f,%.3f\n" path jobs seconds speedup))
    (List.rev !csv_rows);
  Bench_env.write_file "parallel.csv" (Buffer.contents b);
  Printf.printf "\n  (series written to %s/parallel.csv)\n" Bench_env.results_dir
