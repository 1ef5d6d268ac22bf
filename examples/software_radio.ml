(* A software-defined radio with two operating modes.

   The radio runs on a 60-column PRTR FPGA.  In NARROWBAND mode the
   device hosts a slow but wide filter bank; in WIDEBAND mode it swaps in
   a faster channelizer plus a Viterbi decoder.  Admission control must
   certify each mode before a mode change is allowed.

   This example shows why the paper insists on applying the tests
   together: each mode is certified by a different test (the tests are
   pairwise incomparable), and a naive controller that only trusted one
   bound would refuse a perfectly schedulable mode.  It also exercises
   the EDF-US hybrid on the wideband mode's heavy task.

   Run with:  dune exec examples/software_radio.exe *)

let fpga_area = 10

(* The two modes are (deliberately) the paper's Table 1 and Table 3
   tasksets wearing radio clothes: mode A is certified only by DP, mode B
   only by GN2, so an admission controller trusting a single bound would
   wrongly refuse one of them. *)
let narrowband =
  Model.Taskset.of_list
    [
      Model.Task.of_decimal ~name:"filter-bank" ~exec:"1.26" ~deadline:"7" ~period:"7" ~area:9 ();
      Model.Task.of_decimal ~name:"agc" ~exec:"0.95" ~deadline:"5" ~period:"5" ~area:6 ();
    ]

let wideband =
  Model.Taskset.of_list
    [
      Model.Task.of_decimal ~name:"channelizer" ~exec:"2.10" ~deadline:"5" ~period:"5" ~area:7 ();
      Model.Task.of_decimal ~name:"viterbi" ~exec:"2.00" ~deadline:"7" ~period:"7" ~area:7 ();
    ]

let certify name ts =
  Format.printf "@.--- mode %s ---@." name;
  Format.printf "%a@." Model.Taskset.pp ts;
  let report = Core.Report.run ~fpga_area ts in
  Format.printf "verdicts: %s@." (Core.Report.summary_line report);
  match List.filter (fun a -> Core.Analyzer.accepts a ~fpga_area ts) Core.Analyzer.defaults with
  | [] ->
    Format.printf "ADMISSION DENIED: no bound certifies the mode@.";
    false
  | certifying ->
    Format.printf "admitted (certified by %s)@."
      (String.concat ", " (List.map (fun a -> a.Core.Analyzer.name) certifying));
    true

let () =
  Format.printf "software radio on a %d-column PRTR FPGA@." fpga_area;
  let nb = certify "NARROWBAND" narrowband in
  let wb = certify "WIDEBAND" wideband in
  if nb && wb then
    Format.printf
      "@.mode change admissible in both directions; each mode was certified by a@.different \
       bound, which is exactly the pairwise incomparability of Section 6.@.";

  (* EDF-US on the wideband mode: 'channelizer' has time utilization
     0.42, above the 1/3 threshold, so it gets top priority. *)
  let policies =
    [
      ("EDF-NF", Sim.Policy.edf_nf);
      ("EDF-FkF", Sim.Policy.edf_fkf);
      ( "EDF-US[1/3]",
        Sim.Policy.edf_us ~threshold:(Rat.of_ints 1 3) ~measure:`Time ~rule:Sim.Policy.Nf );
    ]
  in
  Format.printf "@.simulated wideband mode under different policies (horizon 1000):@.";
  List.iter
    (fun (name, policy) ->
      let cfg = Sim.Engine.default_config ~fpga_area ~policy in
      let cfg = { cfg with Sim.Engine.horizon = Model.Time.of_units 1000 } in
      let r = Sim.Engine.run cfg wideband in
      Format.printf "  %-12s %s (preemptions: %d)@." name
        (match r.Sim.Engine.outcome with
         | Sim.Engine.No_miss -> "all deadlines met"
         | Sim.Engine.Miss m ->
           Printf.sprintf "miss at t=%s" (Model.Time.to_string m.Sim.Engine.at))
        r.Sim.Engine.stats.Sim.Engine.preemptions)
    policies
