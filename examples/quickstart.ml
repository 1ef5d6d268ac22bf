(* Quickstart: define a hardware taskset, run the paper's three
   schedulability tests, and sanity-check the verdict with a simulation.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A 1-D reconfigurable FPGA with 100 columns. *)
  let fpga_area = 100 in

  (* Three hardware tasks: (C, D, T, A) = execution time, deadline,
     period, columns.  Times are decimal strings parsed exactly. *)
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.of_decimal ~name:"fft" ~exec:"2.5" ~deadline:"10" ~period:"10" ~area:40 ();
        Model.Task.of_decimal ~name:"aes" ~exec:"1.2" ~deadline:"5" ~period:"5" ~area:25 ();
        Model.Task.of_decimal ~name:"crc" ~exec:"0.8" ~deadline:"4" ~period:"4" ~area:50 ();
      ]
  in
  Format.printf "taskset: %a@." Model.Taskset.pp taskset;
  Format.printf "time utilization UT = %a, system utilization US = %a@.@." Rat.pp_approx
    (Model.Taskset.time_utilization taskset)
    Rat.pp_approx
    (Model.Taskset.system_utilization taskset);

  (* The three utilization-bound tests (all sufficient, pairwise
     incomparable): accept means guaranteed schedulable. *)
  let report = Core.Report.run ~fpga_area taskset in
  Format.printf "%a@." Core.Report.pp report;
  Format.printf "summary: %s@.@." (Core.Report.summary_line report);

  (* Section 6's advice: apply all tests together.  Each of the three
     is sound for EDF-NF, so one ACCEPT certifies the taskset. *)
  (match
     List.filter (fun a -> Core.Analyzer.accepts a ~fpga_area taskset) Core.Analyzer.defaults
   with
   | [] -> Format.printf "no test certifies this taskset under EDF-NF@."
   | certifying ->
     Format.printf "certified schedulable under EDF-NF by: %s@."
       (String.concat ", " (List.map (fun a -> a.Core.Analyzer.name) certifying)));

  (* Cross-check with a simulation (coarse upper bound, synchronous
     release, paper's model: unrestricted migration). *)
  let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
  let cfg = { cfg with Sim.Engine.horizon = Model.Time.of_units 40; record_trace = true } in
  let result = Sim.Engine.run cfg taskset in
  Format.printf "@.simulated over [0, 40] time units:@.";
  print_string (Trace.Gantt.render ~fpga_area taskset result)
