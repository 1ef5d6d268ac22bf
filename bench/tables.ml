(* Beyond the paper's Tables 1-3 (reproduced by [redf tables] and
   pinned by test_paper_tables.ml): show that the three tables are not
   cherry-picked by rediscovering fresh witnesses at random, and
   quantify how often each subset of tests accepts. *)

let fpga_area = 10

let run () =
  Bench_env.section "Discovered incomparability witnesses (extension)";
  let tests = [ ("DP", Core.Dp.accepts); ("GN1", Core.Gn1.accepts); ("GN2", Core.Gn2.accepts) ] in
  let profile =
    {
      (Model.Generator.unconstrained ~n:2) with
      Model.Generator.fpga_area;
      area_hi = fpga_area;
      period_lo = 4.0;
      period_hi = 10.0;
    }
  in
  let rng = Rng.create ~seed:(Bench_env.seed + 101) in
  List.iter
    (fun (name, w) ->
      match w with
      | Some (witness : Experiment.Incomparability.witness) ->
        Format.printf "unique to %-3s (after %5d draws): %a@." name witness.draws_used
          Model.Taskset.pp witness.taskset
      | None -> Format.printf "unique to %-3s: none found within the draw budget@." name)
    (Experiment.Incomparability.find_all ~rng ~profile ~tests ());
  Printf.printf "\njoint acceptance over 5000 random 2-task sets on A(H)=%d:\n" fpga_area;
  List.iter
    (fun (accepting, count) ->
      Printf.printf "  %-16s %5d\n"
        (match accepting with [] -> "(none)" | l -> String.concat "+" l)
        count)
    (Experiment.Incomparability.incidence ~rng ~profile ~tests ())
