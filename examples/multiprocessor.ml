(* Multiprocessor scheduling as a special case of FPGA scheduling.

   Section 1 of the paper observes that global EDF on m identical
   processors is exactly 1-D FPGA scheduling with every task one column
   wide and A(H) = m.  Under that reduction the FPGA tests specialise to
   the classic multiprocessor bounds: DP to GFB (Goossens/Funk/Baruah),
   GN1 to BCL (Bertogna/Cirinei/Lipari) when all deadlines are equal,
   GN2 to BAK2 (Baker).  No separate code is needed: the analyzers run
   on a width-1 taskset with [~fpga_area:m].

   This example runs the reductions on three classic workloads:

   - the Dhall effect: m light tasks plus one heavy task defeat GFB's
     utilization bound even though total utilization is barely above 1;
   - a heavy-task set where BCL beats GFB, showing why the bounds are
     applied together.

   Run with:  dune exec examples/multiprocessor.exe *)

let cpu name c t = Model.Task.of_decimal ~name ~exec:c ~deadline:t ~period:t ~area:1 ()

let analyse ~m ts =
  Format.printf "  m = %d processors@." m;
  List.iter
    (fun (bound, a) ->
      Format.printf "    %-4s (= %-3s reduced): %s@." bound a.Core.Analyzer.name
        (if Core.Analyzer.accepts a ~fpga_area:m ts then "accept" else "reject"))
    [ ("GFB", Core.Analyzer.dp); ("BCL", Core.Analyzer.gn1); ("BAK2", Core.Analyzer.gn2) ];
  let cfg = Sim.Engine.default_config ~fpga_area:m ~policy:Sim.Policy.edf_nf in
  let cfg = { cfg with Sim.Engine.horizon = Model.Time.of_units 500 } in
  Format.printf "    simulation (sync)   : %s@."
    (if Sim.Engine.schedulable cfg ts then "no miss" else "miss")

let () =
  (* Dhall effect: on m=3 processors, three light tasks (u = 2/eps) plus
     one task with utilization ~1 released together: global EDF misses
     even though U barely exceeds 1.  The bounds must reject. *)
  Format.printf "--- Dhall effect (3 light + 1 heavy) ---@.";
  let dhall =
    Model.Taskset.of_list
      [
        cpu "light1" "0.2" "10"; cpu "light2" "0.2" "10"; cpu "light3" "0.2" "10";
        cpu "heavy" "10.1" "10.2";
      ]
  in
  Format.printf "%a@." Model.Taskset.pp dhall;
  Format.printf "UT = %a@." Rat.pp_approx (Model.Taskset.time_utilization dhall);
  analyse ~m:3 dhall;

  (* A pair of heavy tasks on two processors: trivially schedulable (one
     processor each); GFB's bound is defeated by umax and BAK2 rejects
     too, BCL accepts. *)
  Format.printf "@.--- two heavy tasks on two processors ---@.";
  let heavy = Model.Taskset.of_list [ cpu "h1" "9" "10"; cpu "h2" "9" "10" ] in
  Format.printf "%a@." Model.Taskset.pp heavy;
  analyse ~m:2 heavy;

  (* Light tasks: GFB shines. *)
  Format.printf "@.--- eight light tasks on four processors ---@.";
  let light = Model.Taskset.of_list (List.init 8 (fun i -> cpu (Printf.sprintf "l%d" i) "2" "8")) in
  Format.printf "UT = %a@." Rat.pp_approx (Model.Taskset.time_utilization light);
  analyse ~m:4 light;

  Format.printf
    "@.the same code paths analyse FPGAs and multiprocessors: a multiprocessor is@.just a \
     device whose tasks are all one column wide.@."
