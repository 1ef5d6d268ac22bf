(* Sizing an FPGA for a video encoder pipeline.

   The motivating scenario of the paper's introduction: hardware tasks
   (accelerator stages) placed dynamically on a PRTR FPGA.  Here a 30 fps
   encoder runs motion estimation, DCT/quantisation, entropy coding and a
   deblocking filter as periodic hardware tasks, next to a sporadic
   scene-analysis kernel.  The question a designer actually asks: how
   many columns does the device need?

   We sweep the device size, apply the combined analytic test (accept if
   any of DP / GN1 / GN2 accepts — Section 6's advice), and compare with
   the simulation upper bound to see how much headroom the analysis
   leaves.

   Run with:  dune exec examples/video_pipeline.exe *)

let frame_period = "33.3" (* ms at ~30 fps *)

let pipeline =
  Model.Taskset.of_list
    [
      (* stage: C (ms), D, T, columns *)
      Model.Task.of_decimal ~name:"motion-est" ~exec:"11.5" ~deadline:frame_period
        ~period:frame_period ~area:28 ();
      Model.Task.of_decimal ~name:"dct-quant" ~exec:"6.4" ~deadline:frame_period
        ~period:frame_period ~area:17 ();
      Model.Task.of_decimal ~name:"entropy" ~exec:"8.9" ~deadline:frame_period
        ~period:frame_period ~area:12 ();
      Model.Task.of_decimal ~name:"deblock" ~exec:"5.1" ~deadline:frame_period
        ~period:frame_period ~area:14 ();
      (* sporadic scene analysis: fires at most every 4 frames, must
         finish within 2 frames *)
      Model.Task.of_decimal ~name:"scene-scan" ~exec:"21" ~deadline:"66.6" ~period:"133.2"
        ~area:22 ();
    ]

let () =
  Format.printf "video pipeline: %a@." Model.Taskset.pp pipeline;
  Format.printf "UT = %a  US = %a@.@." Rat.pp_approx
    (Model.Taskset.time_utilization pipeline)
    Rat.pp_approx
    (Model.Taskset.system_utilization pipeline);

  Format.printf "%8s" "A(H)";
  List.iter (fun a -> Format.printf " %6s" a.Core.Analyzer.name) Core.Analyzer.defaults;
  Format.printf " %10s %10s@." "combined" "sim-NF";
  let sim_ok fpga_area =
    let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
    Sim.Engine.schedulable { cfg with Sim.Engine.horizon = Model.Time.of_units 2000 } pipeline
  in
  let show b = if b then "yes" else "-" in
  let amax = Model.Taskset.amax pipeline in
  let first_combined = ref None in
  let first_sim = ref None in
  for fpga_area = amax to 100 do
    let accepts =
      List.map (fun a -> Core.Analyzer.accepts a ~fpga_area pipeline) Core.Analyzer.defaults
    in
    let combined = List.mem true accepts in
    let sim = sim_ok fpga_area in
    if combined && !first_combined = None then first_combined := Some fpga_area;
    if sim && !first_sim = None then first_sim := Some fpga_area;
    if fpga_area mod 5 = 0 then begin
      Format.printf "%8d" fpga_area;
      List.iter (fun b -> Format.printf " %6s" (show b)) accepts;
      Format.printf " %10s %10s@." (show combined) (show sim)
    end
  done;
  (match (!first_combined, !first_sim) with
   | Some a, Some s ->
     Format.printf
       "@.smallest device certified by analysis: %d columns@.smallest device that simulates \
        cleanly (upper bound): %d columns@.analysis headroom: %d columns@."
       a s (a - s)
   | _ -> Format.printf "@.the pipeline is not schedulable on any device up to 100 columns@.");

  (* show the schedule on the certified device *)
  match !first_combined with
  | None -> ()
  | Some fpga_area ->
    let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
    let cfg = { cfg with Sim.Engine.horizon = Model.Time.of_units 140; record_trace = true } in
    let result = Sim.Engine.run cfg pipeline in
    Format.printf "@.schedule on the %d-column device (first 140 ms):@." fpga_area;
    print_string (Trace.Gantt.render ~fpga_area pipeline result)
