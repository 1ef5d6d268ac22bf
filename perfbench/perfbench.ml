(* The repository benchmark: see README.md in this directory.

   perfbench --workload W --seed N --seconds S --trace 0|1
   perfbench --workload W --seed N --seconds S --report K

   --trace 0 drives the shipped daemons / sweep and prints the
   end-to-end metrics; --trace 1 replays the same inputs in-process and
   prints the per-layer metrics.  Either way the last stdout line is
   one JSON object {correct, attempted, failed, metrics}, and the exit
   status is non-zero on a wrong answer or a failed shape guard.
   --report K runs the untraced benchmark K times (seeds N .. N+K-1)
   and prints each end-to-end metric's median, quartiles and
   IQR / median next to its bound in BENCHMARK.json. *)

open Common

let workloads = [ "serve-hit"; "serve-miss"; "admit-churn"; "sweep-fig3a" ]
let end_to_end_names = [ "throughput_ops_s"; "latency_p50_us"; "setup_s"; "peak_rss_mb" ]

(* every per-layer metric, in BENCHMARK.json order; a layer a workload
   never reaches reports 0 there *)
let per_layer =
  [
    ("server.framing.feed_us", "us"); ("server.protocol.parse_us", "us");
    ("model.columns.of_taskset_us", "us"); ("cache.canonical.key_us", "us");
    ("cache.verdicts.self_us", "us"); ("cache.verdicts.hit_ratio", "ratio");
    ("cache.verdicts.evictions", "count"); ("core.analyzer.dp_decide_us", "us");
    ("core.analyzer.gn1_decide_us", "us"); ("core.analyzer.gn2_decide_us", "us");
    ("core.analyzer.nec_decide_us", "us"); ("core.analyzer.decides", "count");
    ("server.protocol.encode_us", "us"); ("server.engine.handle_lines_us", "us");
    ("server.engine.unaccounted_us", "us"); ("server.loop.residual_us", "us");
    ("loadgen.cpu_ratio", "ratio"); ("loadgen.latency_p99_us", "us"); ("admit.daemon.add_us", "us");
    ("admit.daemon.remove_us", "us"); ("admit.daemon.what_if_us", "us");
    ("admit.daemon.query_us", "us"); ("core.json.of_string_us", "us");
    ("cache.delta.us", "us"); ("cache.verdicts.decide_canonical_us", "us");
    ("core.report.verdict_json_us", "us"); ("admit.store.commit_us", "us");
    ("admit.store.snapshot_us", "us"); ("admit.store.snapshot_bytes", "count");
    ("admit.journal.bytes_per_mutation", "count"); ("admit.daemon.unaccounted_us", "us");
    ("admit.cache.hit_ratio", "ratio"); ("admit.write_latency_p50_us", "us");
    ("model.generator.draw_us", "us"); ("sim.engine.nf_us", "us"); ("sim.engine.fkf_us", "us");
    ("sim.engine.events", "count"); ("parallel.pool.efficiency", "ratio");
    ("experiment.sweep.unaccounted_s", "s"); ("trace.overhead_ratio", "ratio");
  ]

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct (o : outcome) =
  let metrics =
    List.map
      (fun m -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_float m.value) m.unit_)
      o.metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    (max 1 o.attempted) o.failed (String.concat "," metrics)

let complete_per_layer (o : outcome) =
  let find name = List.find_opt (fun m -> m.name = name) o.metrics in
  { o with metrics = List.map (fun (n, u) -> match find n with Some m -> m | None -> metric n u 0.0) per_layer }

let run_once ~workload ~seed ~seconds ~trace ~redf =
  if not (Sys.file_exists redf) then failf "%s not found (build the repository first)" redf;
  let base = Filename.concat ".bench_build" "perfbench" in
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  let spans_path = Filename.concat base (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
  Fun.protect ~finally:(fun () -> stop_children (); rm_rf dir) @@ fun () ->
  let outcome, guards =
    match (workload, trace) with
    | "serve-hit", false -> (Serve_wl.end_to_end Serve_wl.Hit ~redf ~dir ~seed ~seconds, [])
    | "serve-miss", false -> (Serve_wl.end_to_end Serve_wl.Miss ~redf ~dir ~seed ~seconds, [])
    | "admit-churn", false -> (Admit_wl.end_to_end ~redf ~dir ~seed ~seconds, [])
    | "sweep-fig3a", false -> (Sweep_wl.end_to_end ~redf ~seed ~seconds, [])
    | "serve-hit", true -> Serve_wl.traced Serve_wl.Hit ~redf ~dir ~seed ~seconds ~spans_path
    | "serve-miss", true -> Serve_wl.traced Serve_wl.Miss ~redf ~dir ~seed ~seconds ~spans_path
    | "admit-churn", true -> Admit_wl.traced ~redf ~dir ~seed ~seconds ~spans_path
    | "sweep-fig3a", true -> Sweep_wl.traced ~seed ~spans_path
    | w, _ -> failf "unknown workload %S (known: %s)" w (String.concat ", " workloads)
  in
  let outcome = if trace then complete_per_layer outcome else outcome in
  List.iter (fun n -> log "%s: %s" workload n) outcome.notes;
  if trace then log "%s: spans written to %s" workload spans_path;
  List.iter (fun m -> log "%-36s %14.4f %s" m.name m.value m.unit_) outcome.metrics;
  let broken = List.filter (fun (ok, _) -> not ok) guards in
  List.iter (fun (_, msg) -> log "shape guard FAILED: %s" msg) broken;
  List.iter (fun (ok, msg) -> if ok then log "shape guard ok: %s" msg) guards;
  if outcome.failed > 0 then
    log "%d of %d operations failed (wrong, error or missing replies)" outcome.failed outcome.attempted;
  let correct = outcome.failed = 0 && broken = [] in
  print_endline (result_line ~correct outcome);
  if correct then 0 else 1

(* --- steadiness report --- *)

(* Core.Json carries no fractional numbers, so every number literal
   outside a string is quoted first; [number] reads one back. *)
let parse_json s =
  let n = String.length s and b = Buffer.create (String.length s + 256) in
  let rec go i in_string =
    if i < n then begin
      let c = s.[i] in
      if in_string then begin
        Buffer.add_char b c;
        if c = '\\' && i + 1 < n then begin
          Buffer.add_char b s.[i + 1];
          go (i + 2) true
        end
        else go (i + 1) (c <> '"')
      end
      else if c = '-' || (c >= '0' && c <= '9') then begin
        let j = ref i in
        while !j < n && String.contains "+-.0123456789eE" s.[!j] do incr j done;
        Buffer.add_char b '"';
        Buffer.add_substring b s i (!j - i);
        Buffer.add_char b '"';
        go !j false
      end
      else begin
        Buffer.add_char b c;
        go (i + 1) (c = '"')
      end
    end
  in
  go 0 false;
  match Core.Json.of_string (Buffer.contents b) with Ok j -> j | Error e -> failf "bad JSON: %s" e

let number = function Some (Core.Json.String v) -> float_of_string_opt v | _ -> None
let ( |? ) j k = Option.bind j (Core.Json.member k)

let report ~workload ~seed ~seconds ~redf ~k ~bench_json =
  let bounds =
    match Some (parse_json (read_file bench_json)) |? "end_to_end" with
    | Some (Core.Json.List ms) ->
      List.filter_map
        (fun m ->
          match (Core.Json.member "name" m, number (Some m |? "bound")) with
          | Some (Core.Json.String name), Some b -> Some (name, b)
          | _ -> None)
        ms
    | _ -> failf "%s has no end_to_end list" bench_json
  in
  let runs =
    List.init k (fun i ->
        let s = seed + i in
        log "report: %s run %d/%d (seed %d)" workload (i + 1) k s;
        let out =
          run_capture Sys.executable_name
            [ "--workload"; workload; "--seed"; string_of_int s; "--seconds"; string_of_int seconds;
              "--trace"; "0"; "--redf"; redf ]
        in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
        Some (parse_json (List.nth lines (List.length lines - 1))) |? "metrics")
  in
  Printf.printf "%s: %d runs, seeds %d..%d, --seconds %d\n" workload k seed (seed + k - 1) seconds;
  Printf.printf "%-18s %14s %14s %14s %10s %8s  %s\n" "metric" "median" "q1" "q3" "iqr/med" "bound" "verdict";
  let ok = ref true in
  List.iter
    (fun name ->
      let value r =
        match number (r |? name |? "value") with Some v -> v | None -> failf "run output lacks %s" name
      in
      let values = Array.of_list (List.map value runs) in
      let med = median values in
      Printf.printf "%-18s runs: %s\n" name
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") values)));
      match quartiles values with
      | [ q1; _; q3 ] ->
        let spread = (q3 -. q1) /. med in
        let bound = List.assoc_opt name bounds in
        let verdict =
          match bound with
          | None -> "no bound"
          | Some b when spread <= b /. 3.0 -> "steady (< bound/3)"
          | Some b when spread <= b -> "within bound"
          | Some _ ->
            ok := false;
            "TOO NOISY"
        in
        Printf.printf "%-18s %14.6g %14.6g %14.6g %10.4f %8s  %s\n" name med q1 q3 spread
          (match bound with Some b -> Printf.sprintf "%.3f" b | None -> "-")
          verdict
      | _ -> assert false)
    end_to_end_names;
  if !ok then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* raising unwinds through the cleanup that stops daemons and removes the run directory *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise (Bench_failure "interrupted"))))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let redf = ref (Filename.concat ".bench_build" "default/bin/redf.exe") in
  let report_k = ref 0 and bench_json = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1; held-out confirmation seed: 1000003)");
      ("--seconds", Arg.Set_int seconds, "S run length: the op budget is S x the workload's nominal rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer replay (1)");
      ("--redf", Arg.Set_string redf, "PATH the redf binary to drive");
      ("--report", Arg.Set_int report_k, "K steadiness report over K seeded runs");
      ("--bench-json", Arg.Set_string bench_json, "PATH bounds for --report (default BENCHMARK.json)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let code =
    try
      if !report_k >= 2 then
        report ~workload:!workload ~seed:!seed ~seconds:!seconds ~redf:!redf ~k:!report_k
          ~bench_json:!bench_json
      else run_once ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~redf:!redf
    with
    | Bench_failure msg ->
      log "error: %s" msg;
      2
    | Unix.Unix_error (e, fn, arg) ->
      log "error: %s(%s): %s" fn arg (Unix.error_message e);
      2
  in
  exit code
