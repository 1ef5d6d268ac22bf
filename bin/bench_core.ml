(* [redf bench-core]: measure the analyzer cost matrix (Bench.Core_bench),
   write results/BENCH_core.json (schema v3), and optionally gate on a
   committed baseline — the CI perf-regression leg.

   The baseline is read *before* the output file is written, so
   --compare FILE --out FILE (the usual CI invocation, both defaulting
   to results/BENCH_core.json) diffs against the committed bytes.

   A row that trips the gate is re-measured once and the faster of its
   two runs is kept: a shared runner's scheduling hiccup shows up in
   one run, a real regression in both. *)

let default_out = Filename.concat Bench.Env.results_dir "BENCH_core.json"

let row_key r = (r.Bench.Env.analyzer, r.Bench.Env.n, r.Bench.Env.mode)

let progress r = Printf.printf "  %s\n%!" (Bench.Core_bench.pretty_row r)

let retry_regressed ~tolerance ~baseline rows =
  let compared = Bench.Core_bench.compare_rows ~tolerance ~baseline rows in
  match Bench.Core_bench.regressions compared with
  | [] -> (rows, compared)
  | regressed ->
    Printf.printf "\n%d row(s) look regressed; re-measuring those rows once:\n%!"
      (List.length regressed);
    let keys = List.map (fun c -> row_key c.Bench.Core_bench.row) regressed in
    (* unbudgeted: a handful of rows, and a truncated retry would be
       useless as evidence either way *)
    let reruns = Bench.Core_bench.collect ~only:keys ~progress () in
    let rows =
      List.map
        (fun r ->
          match List.find_opt (fun r2 -> row_key r2 = row_key r) reruns with
          | Some r2
            when (not r2.Bench.Env.truncated)
                 && r2.Bench.Env.ns_per_decide < r.Bench.Env.ns_per_decide ->
            r2
          | _ -> r)
        rows
    in
    (rows, Bench.Core_bench.compare_rows ~tolerance ~baseline rows)

(* the --compare document, read before anything is measured or written *)
let load_baseline = function
  | None -> Ok None
  | Some path ->
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "bench-core: baseline %s does not exist" path)
    else (
      match Bench.Env.parse_core (In_channel.with_open_bin path In_channel.input_all) with
      | Ok rows -> Ok (Some rows)
      | Error msg -> Error (Printf.sprintf "bench-core: cannot parse %s: %s" path msg))

let run ?budget_ms ~out ~baseline ~tolerance () =
  Printf.printf "analyzer cost matrix (ns/decide, seed-fixed workloads):\n%!";
  let rows = Bench.Core_bench.collect ?budget_ms ~progress () in
  let rows, compared =
    match baseline with
    | None -> (rows, None)
    | Some baseline ->
      let rows, compared = retry_regressed ~tolerance ~baseline rows in
      (rows, Some compared)
  in
  Bench.Env.ensure_parent_dir out;
  Out_channel.with_open_bin out (fun oc -> output_string oc (Bench.Env.core_doc rows));
  Printf.printf "  -> %s\n%!" out;
  match compared with
  | None -> 0
  | Some compared ->
    Printf.printf "\nagainst baseline (tolerance %.2fx):\n" tolerance;
    List.iter (fun c -> Printf.printf "  %s\n" (Bench.Core_bench.pretty_compared c)) compared;
    let regressed = Bench.Core_bench.regressions compared in
    if regressed = [] then begin
      Printf.printf "\nno regressions.\n";
      0
    end
    else begin
      Printf.printf "\n%d row(s) regressed beyond %.2fx.\n" (List.length regressed) tolerance;
      1
    end
