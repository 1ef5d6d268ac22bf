(* Benchmark harness regenerating every table and figure of Guan et al.,
   "Improved Schedulability Analysis of EDF Scheduling on Reconfigurable
   Hardware Devices" (IPDPS 2007), plus the ablations, the parallel
   scaling run and the observability-overhead timings documented in
   DESIGN.md / EXPERIMENTS.md.  Analyzer cost per decide is measured by
   [redf bench-core] (results/BENCH_core.json), the daemons by
   perfbench/.

   Knobs (environment variables):
     REDF_SAMPLES     tasksets per utilization point   (default 500)
     REDF_HORIZON     simulation horizon in time units (default 500)
     REDF_SEED        master PRNG seed                 (default 42)
     REDF_JOBS        worker domains, 0 = one per core (default 1)
     REDF_SKIP_MICRO  skip the Bechamel observability-overhead section

   Paper scale is REDF_SAMPLES=10000; see EXPERIMENTS.md. *)

let sections =
  [
    ("tables", Tables.run);
    ("figures", Figures.run);
    ("ablations", Ablations.run);
    ("parallel", Scaling.run);
    ("obs", Obs_bench.run);
  ]

(* no arguments = every section; otherwise run just the named ones *)
let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | names ->
      List.iter
        (fun n ->
          if not (List.mem_assoc n sections) then begin
            Printf.eprintf "unknown section %S (use %s)\n" n
              (String.concat ", " (List.map fst sections));
            exit 1
          end)
        names;
      names
  in
  print_endline "reconfig_edf benchmark harness";
  print_endline "reproducing: Guan et al., IPDPS 2007 (EDF on PRTR FPGAs)";
  List.iter (fun (name, run) -> if List.mem name requested then run ()) sections;
  print_newline ();
  print_endline "done; CSV series in ./results/, interpretation in EXPERIMENTS.md"
