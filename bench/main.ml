(* Benchmark harness for the measurements documented in DESIGN.md /
   EXPERIMENTS.md: the parallel scaling run and the
   observability-overhead timings.  The paper's own Tables 1-3 and
   Figures 3-4 come from [redf tables] and [redf sweep FIG --csv]
   alone.  Analyzer cost per decide is measured by [redf bench-core]
   (results/BENCH_core.json), the daemons by perfbench/.

   Knobs (environment variables):
     REDF_SAMPLES     tasksets per utilization point of the parallel
                      section's sweep, capped at 100 (default 500)
     REDF_SEED        master PRNG seed                 (default 42)
     REDF_SKIP_MICRO  skip the Bechamel observability-overhead section *)

let sections = [ ("parallel", Scaling.run); ("obs", Obs_bench.run) ]

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
  List.iter (fun (name, run) -> if List.mem name requested then run ()) sections;
  print_newline ();
  print_endline "done; interpretation in EXPERIMENTS.md"
