(* redf — command-line front end for the reconfig_edf library.

   Subcommands:
     analyze      run DP / GN1 / GN2 (and friends) on a taskset CSV
     simulate     simulate EDF-NF / EDF-FkF and optionally draw a Gantt chart
     generate     emit a synthetic taskset CSV from a named profile
     sweep        acceptance-ratio sweep for one of the paper's figures
     tables       reproduce the paper's Tables 1-3
     exhaustive   search release offsets for a deadline miss (small tasksets)
     lint         static lint pass over a taskset CSV
     audit        lint + cross-analyzer soundness audit against simulation
     check-src    typedtree static analysis of the repo's own sources (.cmt files)
     serve        analysis service: line-oriented JSON over stdio, socket and/or TCP
     admit        crash-safe online admission-control daemon (same event loop)
     chaos-admit  crash/restart torture of the admission daemon
     bench-core   analyzer cost matrix vs the committed baseline (CI perf gate)
     batch        evaluate a file of service requests (in-process or --connect)
     metrics-diff compare two --metrics snapshots

   Long-running subcommands accept --metrics[=FILE] to write a runtime
   metrics snapshot (JSON lines). *)

open Cmdliner

(* make the exact oracle and approx analyzers resolvable by name
   everywhere (analyze, serve, batch, the cache) *)
let () = Exact.Registry.ensure ()

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_taskset path =
  try Ok (Model.Taskset.of_csv (read_file path)) with
  | Sys_error msg -> Error msg
  | Invalid_argument msg -> Error msg

(* --- common args --- *)

let taskset_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TASKSET.csv" ~doc:"Taskset file (header name,C,D,T,A).")

let area_arg =
  Arg.(
    value & opt int 100
    & info [ "a"; "area" ] ~docv:"COLUMNS" ~doc:"FPGA area $(docv) (number of columns).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let horizon_arg =
  Arg.(
    value & opt int 1000
    & info [ "horizon" ] ~docv:"UNITS" ~doc:"Simulation horizon in time units.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel execution: a positive count, or 0 for one per core. \
           Defaults to $(b,REDF_JOBS) (same convention), else 1 (serial). Output is \
           byte-identical for every $(docv).")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("nf", Sim.Policy.edf_nf); ("fkf", Sim.Policy.edf_fkf) ]) Sim.Policy.edf_nf
    & info [ "policy" ] ~docv:"nf|fkf" ~doc:"Scheduling policy: EDF-NF or EDF-FkF.")

(* -j / REDF_JOBS is validated here at the CLI boundary: a negative
   count or a garbage environment value is a usage error (exit 2), not
   a silent fall-back to serial *)
let validate_jobs jobs_opt =
  match jobs_opt with
  | Some n when n >= 0 -> Ok n
  | Some n ->
    Error (Printf.sprintf "invalid --jobs %d: expected a positive worker count or 0 (one per core)" n)
  | None -> Parallel.jobs_of_env ()

(* run [f ~jobs] with the validated worker count, or report the usage
   error; [~jobs] keeps the CLI's 0 = one-per-core convention *)
let with_jobs jobs_opt f =
  match validate_jobs jobs_opt with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    2
  | Ok jobs -> f ~jobs

let require_positive flag n k =
  if n < 1 then begin
    Printf.eprintf "error: invalid %s %d: expected a positive count\n" flag n;
    2
  end
  else k ()

(* a flag in whole time units must be representable in ticks;
   [Model.Time.of_units] rejects what would wrap around *)
let with_units flag n k =
  match Model.Time.of_units n with
  | t -> k t
  | exception Invalid_argument _ ->
    Printf.eprintf "error: invalid %s %d: out of range\n" flag n;
    2

(* the simulator rejects a task wider than the device; name it here
   instead of letting the engine's Invalid_argument escape *)
let require_fits ~fpga_area ts k =
  let wide =
    List.find_opt
      (fun (_, (t : Model.Task.t)) -> t.area > fpga_area)
      (List.mapi (fun i t -> (i + 1, t)) (Model.Taskset.to_list ts))
  in
  match wide with
  | Some (i, t) ->
    Printf.eprintf "error: task %d (%s) is %d columns wide, wider than --area %d\n" i
      t.Model.Task.name t.Model.Task.area fpga_area;
    1
  | None -> k ()

(* --- metrics --- *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect runtime metrics and write a key-sorted JSON-lines snapshot to $(docv) after \
           the run ($(b,-), or no value, means stderr). Compare two snapshots with $(b,redf \
           metrics-diff).")

(* the destination is opened before the work starts, so an unwritable
   path is an error up front rather than a crash after a daemon has
   answered its whole session; the snapshot is then emitted even when
   the wrapped command fails, so a non-zero exit still leaves its cost
   profile behind *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some dest -> (
    match
      if dest = "-" then Ok stderr
      else
        try
          Ok
            (Unix.out_channel_of_descr
               (Unix.openfile dest [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644))
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    with
    | Error reason ->
      Printf.eprintf "error: cannot write metrics to %s: %s\n" dest reason;
      2
    | Ok oc ->
      Obs.set_enabled true;
      let emit () =
        output_string oc (Obs.Snapshot.to_jsonl (Obs.Snapshot.take ()));
        if dest = "-" then flush oc else close_out oc
      in
      Fun.protect ~finally:emit f)

(* progress printer shared by the parallel-capable subcommands: called
   from worker domains (already serialized and monotonic, see
   Experiment.Sweep.run), so each update must land as one write *)
let progress_printer () =
  let last_pct = ref (-1) in
  fun done_ total ->
    let pct = done_ * 100 / max 1 total in
    if pct > !last_pct || done_ = total then begin
      last_pct := pct;
      let line = Printf.sprintf "\r%d/%d tasksets (%d%%)" done_ total pct in
      output_string stderr line;
      flush stderr
    end

let clear_progress () =
  output_string stderr (Printf.sprintf "\r%*s\r" 40 "");
  flush stderr

(* --- lint / audit --- *)

let sexp_arg =
  Arg.(value & flag & info [ "sexp" ] ~doc:"Machine-readable sexp output instead of human form.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors for the exit status.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"human|json"
        ~doc:
          "Output format: the default human rendering, or the canonical JSON the analysis \
           service emits (one key-sorted object; see $(b,redf serve)).")

let print_report ~label ~sexp ?(json = false) report =
  if json then print_endline (Wire.Json.to_string (Audit.Driver.to_json ~kind:label report))
  else if sexp then Format.printf "%a@." Audit.Driver.pp_sexp report
  else Format.printf "%a@." (Audit.Driver.pp ~label) report

(* a malformed taskset is itself a lint finding: report it in the same
   formats and exit 2 like any other error-level diagnostic *)
let parse_failure ~label ~sexp ?json msg =
  let report =
    {
      Audit.Driver.fpga_area = 0;
      lint = [ Audit.Diagnostic.error ~rule:"taskset-parse" msg ];
      findings = [];
    }
  in
  print_report ~label ~sexp ?json report;
  2

let lint_cmd =
  let run path fpga_area sexp format strict =
    let json = format = `Json in
    match load_taskset path with
    | Error msg -> parse_failure ~label:"lint" ~sexp ~json msg
    | Ok ts ->
      let report = Audit.Driver.lint_only ~fpga_area ts in
      print_report ~label:"lint" ~sexp ~json report;
      Audit.Driver.exit_code ~strict report
  in
  let term = Term.(const run $ taskset_arg $ area_arg $ sexp_arg $ format_arg $ strict_arg) in
  let info =
    Cmd.info "lint"
      ~doc:"Statically lint a taskset"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Checks the structural invariants the analyzers assume (per-task C <= min(D,T), \
             tasks no wider than the device, necessary feasibility conditions) plus hygiene \
             rules (duplicate names, degenerate utilizations, vacuous analyzer preconditions). \
             Exit status 0 when no error-level diagnostic fires (with $(b,--strict): no warning \
             either), 2 otherwise.";
        ]
  in
  Cmd.v info term

let audit_cmd =
  let run paths fpga_area sexp format strict cap_units seed inject_unsound no_shrink fixture_dir
      jobs metrics =
    let json = format = `Json in
    with_jobs jobs @@ fun ~jobs ->
    with_units "--horizon-cap" cap_units @@ fun horizon_cap ->
    with_metrics metrics @@ fun () ->
    let config =
      {
        (Audit.Consistency.default_config ~fpga_area) with
        Audit.Consistency.horizon_cap;
        sporadic_seed = seed;
        shrink = not no_shrink;
      }
    in
    let analyzers =
      Audit.Consistency.paper_analyzers
      @
      if inject_unsound then
        [
          Audit.Consistency.always_accept ~name:"ALWAYS-ACCEPT"
            ~sound_for:[ Audit.Consistency.Edf_nf; Audit.Consistency.Edf_fkf ];
        ]
      else []
    in
    let multi = List.length paths > 1 in
    (* one taskset: fan the audit units out; several tasksets: one
       domain per taskset (each audit serial).  Either way the reports
       are deterministic and printed in argument order. *)
    let audit_one inner_jobs path =
      match load_taskset path with
      | Error msg -> Error msg
      | Ok ts -> Ok (Audit.Driver.run ~analyzers ~config ~jobs:inner_jobs ~fpga_area ts)
    in
    let results =
      if multi then
        Array.to_list (Parallel.parallel_map ~jobs (audit_one 1) (Array.of_list paths))
      else List.map (audit_one jobs) paths
    in
    let codes =
      List.map2
        (fun path result ->
          let label = if multi then "audit " ^ Filename.basename path else "audit" in
          match result with
          | Error msg -> parse_failure ~label ~sexp ~json msg
          | Ok report ->
            print_report ~label ~sexp ~json report;
            (match fixture_dir with
             | None -> ()
             | Some dir ->
               List.iteri
                 (fun i f ->
                   match Audit.Consistency.fixture f with
                   | None -> ()
                   | Some csv ->
                     let name =
                       Printf.sprintf "%scounterexample-%d-%s.csv"
                         (if multi then
                            Filename.remove_extension (Filename.basename path) ^ "-"
                          else "")
                         i
                         (String.lowercase_ascii
                            (Option.value f.Audit.Consistency.analyzer ~default:"x"))
                     in
                     let fixture_path = Filename.concat dir name in
                     let oc = open_out fixture_path in
                     output_string oc csv;
                     close_out oc;
                     Printf.eprintf "wrote regression fixture %s\n" fixture_path)
                 report.Audit.Driver.findings);
            Audit.Driver.exit_code ~strict report)
        paths results
    in
    List.fold_left max 0 codes
  in
  let cap_arg =
    Arg.(
      value & opt int 10_000
      & info [ "horizon-cap" ] ~docv:"UNITS"
          ~doc:"Simulate min(hyper-period, $(docv)) time units.")
  in
  let seed_opt_arg =
    Arg.(
      value
      & opt (some int) (Some 97)
      & info [ "sporadic-seed" ] ~docv:"SEED"
          ~doc:"Also audit a sporadic release pattern with this seed (omit via --no-sporadic).")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-unsound" ]
          ~doc:
            "Add a deliberately-unsound ALWAYS-ACCEPT analyzer; the audit must flag it on any \
             unschedulable taskset (self-test of the auditor).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report raw counterexamples without shrinking.")
  in
  let fixture_dir_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "fixture-dir" ] ~docv:"DIR"
          ~doc:"Write each shrunk counterexample as a regression-fixture CSV into $(docv).")
  in
  let tasksets_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TASKSET.csv" ~doc:"Taskset files (header name,C,D,T,A).")
  in
  let term =
    Term.(
      const run $ tasksets_arg $ area_arg $ sexp_arg $ format_arg $ strict_arg $ cap_arg
      $ seed_opt_arg $ inject_arg $ no_shrink_arg $ fixture_dir_arg $ jobs_arg $ metrics_arg)
  in
  let info =
    Cmd.info "audit"
      ~doc:"Lint a taskset and audit analyzer verdicts against simulation"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs the static lint pass, then cross-checks DP / GN1 / GN2 against the EDF-NF and \
             EDF-FkF simulator on the same taskset: an ACCEPT paired with an observed deadline \
             miss under a scheduler the test covers (DP and GN2 cover both schedulers, GN1 \
             covers EDF-NF; Theorem 3 makes GN2-ACCEPT imply EDF-NF schedulability) is a hard \
             error, and every recorded trace must satisfy the Lemma 1 / Lemma 2 occupancy \
             floors and the physical trace invariants. Counterexamples are shrunk to minimal \
             tasksets. Several tasksets can be audited in one invocation; with $(b,-j) the \
             audits fan out over worker domains (one domain per taskset, or across the \
             analyzer/scheduler/release units of a single taskset) with deterministic, \
             order-preserving output. Exit status 0 when every taskset is clean, 2 otherwise.";
        ]
  in
  Cmd.v info term

(* --- analyze --- *)

let analyze_cmd =
  let run path fpga_area all analyzer_names format metrics =
    with_metrics metrics @@ fun () ->
    match load_taskset path with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok ts -> (
      let analyzers =
        match analyzer_names with
        | Some names -> Core.Analyzer.of_names names
        | None ->
          Ok
            (if all then Core.Analyzer.[ dp; dp_original; gn1; gn1_printed; gn2 ]
             else Core.Analyzer.defaults)
      in
      match analyzers with
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        2
      | Ok analyzers ->
        let report = Core.Report.run ~analyzers ~fpga_area ts in
        let any_accepted = List.exists Core.Verdict.accepted report.Core.Report.verdicts in
        (match format with
         | `Json -> print_endline (Wire.Json.to_string (Core.Report.to_json report))
         | `Human ->
           Format.printf "%a@." Core.Report.pp report;
           (match Core.Feasibility.check ~fpga_area ts with
            | [] -> Format.printf "necessary conditions: all satisfied@."
            | violations ->
              Format.printf "INFEASIBLE under any scheduler:@.";
              List.iter (Format.printf "  %a@." Core.Feasibility.pp_violation) violations);
           let plan = Core.Partitioned.first_fit_decreasing ~fpga_area ts in
           Format.printf "partitioned, density test (first-fit decreasing): %s@,%a@."
             (if Core.Partitioned.schedulable plan then "ACCEPT" else "REJECT")
             Core.Partitioned.pp plan;
           Format.printf "partitioned, exact demand-bound test: %s@."
             (if Core.Partitioned.accepts ~test:Core.Partitioned.Demand_bound ~fpga_area ts then
                "ACCEPT"
              else "REJECT"));
        if any_accepted then 0 else 2)
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Also run the uncorrected/printed test variants.")
  in
  let analyzer_names_arg =
    let doc =
      Printf.sprintf
        "Comma-separated registry names to run instead of the defaults (registered analyzers: \
         %s; case-insensitive). Overrides $(b,--all)."
        (String.concat ", " (Core.Analyzer.known_names ()))
    in
    Arg.(value & opt (some string) None & info [ "analyzer" ] ~docv:"NAMES" ~doc)
  in
  let term =
    Term.(
      const run $ taskset_arg $ area_arg $ all_arg $ analyzer_names_arg $ format_arg $ metrics_arg)
  in
  let info =
    Cmd.info "analyze"
      ~doc:"Run the schedulability tests on a taskset"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs DP (Theorem 1), GN1 (Theorem 2), GN2 (Theorem 3) and the partitioned \
             first-fit-decreasing baseline on the taskset, printing per-task exact \
             left/right-hand sides. $(b,--analyzer) selects any registered analyzers instead, \
             including the exact oracle ($(b,exact), $(b,exact-fkf)) and the approximate \
             demand test ($(b,approx[EPS])). With $(b,--format json) the report is one \
             canonical JSON object whose per-analyzer verdicts are byte-identical to the \
             analysis service's responses ($(b,redf serve)). Exit status 0 when at least one \
             selected analyzer accepts, 2 when all reject.";
        ]
  in
  Cmd.v info term

(* --- simulate --- *)

let simulate_cmd =
  let run path fpga_area horizon policy gantt contiguous metrics =
    require_positive "--area" fpga_area @@ fun () ->
    require_positive "--horizon" horizon @@ fun () ->
    with_units "--horizon" horizon @@ fun horizon_t ->
    with_metrics metrics @@ fun () ->
    match load_taskset path with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok ts ->
      require_fits ~fpga_area ts @@ fun () ->
      let cfg = Sim.Engine.default_config ~fpga_area ~policy in
      let cfg =
        {
          cfg with
          Sim.Engine.horizon = horizon_t;
          record_trace = gantt;
          placement =
            (if contiguous then Sim.Engine.Contiguous Fpga.Device.First_fit
             else Sim.Engine.Migrating);
        }
      in
      let result = Sim.Engine.run cfg ts in
      Format.printf "policy: %a, placement: %s, horizon: %d units@." Sim.Policy.pp policy
        (if contiguous then "contiguous first-fit" else "migrating")
        horizon;
      (match result.Sim.Engine.outcome with
       | Sim.Engine.No_miss -> Format.printf "no deadline miss observed@."
       | Sim.Engine.Miss m ->
         Format.printf "DEADLINE MISS: task %d at t=%s@." (m.Sim.Engine.task_index + 1)
           (Model.Time.to_string m.Sim.Engine.at));
      let s = result.Sim.Engine.stats in
      Format.printf
        "jobs: %d released, %d completed; preemptions: %d; contended time: %s units@."
        s.Sim.Engine.jobs_released s.Sim.Engine.jobs_completed s.Sim.Engine.preemptions
        (Model.Time.to_string (Model.Time.of_ticks s.Sim.Engine.contended_ticks));
      Format.printf "mean occupied area: %.1f / %d columns@."
        (Sim.Engine.average_busy_area result)
        fpga_area;
      if gantt then print_string (Trace.Gantt.render ~fpga_area ts result);
      (match result.Sim.Engine.outcome with Sim.Engine.No_miss -> 0 | Sim.Engine.Miss _ -> 2)
  in
  let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.") in
  let contiguous_arg =
    Arg.(
      value & flag
      & info [ "contiguous" ]
          ~doc:"Contiguous first-fit placement instead of unrestricted migration.")
  in
  let term =
    Term.(
      const run $ taskset_arg $ area_arg $ horizon_arg $ policy_arg $ gantt_arg $ contiguous_arg
      $ metrics_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate EDF-NF or EDF-FkF scheduling of a taskset") term

(* --- generate --- *)

let generate_cmd =
  let run profile n seed target =
    let profile =
      match profile with
      | `Unconstrained -> Model.Generator.unconstrained ~n
      | `Spatially_heavy -> Model.Generator.spatially_heavy_temporally_light ~n
      | `Temporally_heavy -> Model.Generator.spatially_light_temporally_heavy ~n
    in
    let rng = Rng.create ~seed in
    let ts =
      match target with
      | None -> Some (Model.Generator.draw rng profile)
      | Some t -> Model.Generator.draw_with_target_us rng profile ~target_us:t
    in
    match ts with
    | None ->
      Printf.eprintf "target utilization unreachable for this profile\n";
      1
    | Some ts ->
      print_string (Model.Taskset.to_csv ts);
      0
  in
  let profile_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("unconstrained", `Unconstrained);
               ("spatially-heavy", `Spatially_heavy);
               ("temporally-heavy", `Temporally_heavy);
             ])
          `Unconstrained
      & info [ "profile" ] ~docv:"NAME"
          ~doc:"Workload profile: unconstrained, spatially-heavy or temporally-heavy.")
  in
  let n_arg = Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Number of tasks.") in
  let target_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-us" ] ~docv:"US" ~doc:"Condition the draw on this total system utilization.")
  in
  let term = Term.(const run $ profile_arg $ n_arg $ seed_arg $ target_arg) in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic taskset CSV on stdout") term

(* --- sweep --- *)

let sweep_cmd =
  let run figure_name samples seed horizon csv jobs metrics =
    with_jobs jobs @@ fun ~jobs ->
    require_positive "--samples" samples @@ fun () ->
    require_positive "--horizon" horizon @@ fun () ->
    with_units "--horizon" horizon @@ fun sim_horizon ->
    with_metrics metrics @@ fun () ->
    match
      List.find_opt (fun f -> Experiment.Figures.id f = figure_name) Experiment.Figures.all
    with
    | None ->
      Printf.eprintf "unknown figure %S (use fig3a, fig3b, fig4a or fig4b)\n" figure_name;
      1
    | Some figure ->
      let cfg =
        Experiment.Figures.config ~samples ~seed ~sim_horizon figure
      in
      let result = Experiment.Sweep.run ~progress:(progress_printer ()) ~jobs cfg in
      clear_progress ();
      print_endline (Experiment.Figures.caption figure);
      if csv then print_string (Experiment.Sweep.to_csv result)
      else begin
        print_string (Experiment.Sweep.to_table result);
        print_newline ();
        print_string (Experiment.Sweep.to_ascii_plot result)
      end;
      0
  in
  let figure_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE" ~doc:"One of fig3a, fig3b, fig4a, fig4b.")
  in
  let samples_arg =
    Arg.(value & opt int 300 & info [ "samples" ] ~docv:"N" ~doc:"Tasksets per utilization point.")
  in
  let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  let term =
    Term.(
      const run $ figure_arg $ samples_arg $ seed_arg $ horizon_arg $ csv_arg $ jobs_arg
      $ metrics_arg)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Regenerate one of the paper's figures") term

(* --- exhaustive --- *)

let exhaustive_cmd =
  let run path fpga_area policy grid_ticks max_combinations jobs metrics =
    with_jobs jobs @@ fun ~jobs ->
    require_positive "--area" fpga_area @@ fun () ->
    require_positive "--grid" grid_ticks @@ fun () ->
    with_metrics metrics @@ fun () ->
    match load_taskset path with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok ts ->
      require_fits ~fpga_area ts @@ fun () ->
      (match
         Sim.Exhaustive.search
           ~grid:(Model.Time.of_ticks grid_ticks)
           ~max_combinations ~jobs ~fpga_area ~policy ts
       with
       | Sim.Exhaustive.Schedulable_all_offsets { combinations } ->
         Format.printf "no deadline miss for any of the %d offset assignments on the grid@."
           combinations;
         0
       | Sim.Exhaustive.Miss_with_offsets { offsets; miss } ->
         Format.printf "MISS with first-release offsets (%s): task %d at t=%s@."
           (String.concat ", " (List.map Model.Time.to_string offsets))
           (miss.Sim.Engine.task_index + 1)
           (Model.Time.to_string miss.Sim.Engine.at);
         2
       | Sim.Exhaustive.Too_many_combinations { combinations } ->
         Printf.eprintf "search space too large (%d combinations); coarsen --grid or raise --max\n"
           combinations;
         1
       | Sim.Exhaustive.Hyperperiod_too_large ->
         Printf.eprintf "hyper-period exceeds the simulation cap; not searchable\n";
         1)
  in
  let grid_arg =
    Arg.(
      value & opt int 1000
      & info [ "grid" ] ~docv:"TICKS" ~doc:"Offset grid step in ticks (1000 = one time unit).")
  in
  let max_arg =
    Arg.(
      value & opt int 20000
      & info [ "max" ] ~docv:"N" ~doc:"Maximum number of offset combinations to simulate.")
  in
  let term =
    Term.(
      const run $ taskset_arg $ area_arg $ policy_arg $ grid_arg $ max_arg $ jobs_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "exhaustive"
       ~doc:"Exhaustively search release offsets for a deadline miss (small tasksets)")
    term

(* --- tables --- *)

let tables_cmd =
  let run () =
    let task name c d t a = Model.Task.of_decimal ~name ~exec:c ~deadline:d ~period:t ~area:a () in
    let show title ts =
      Format.printf "@.%s@." title;
      Format.printf "%a@." Core.Report.pp (Core.Report.run ~fpga_area:10 ts)
    in
    show "Table 1"
      (Model.Taskset.of_list [ task "tau1" "1.26" "7" "7" 9; task "tau2" "0.95" "5" "5" 6 ]);
    show "Table 2"
      (Model.Taskset.of_list [ task "tau1" "4.50" "8" "8" 3; task "tau2" "8.00" "9" "9" 5 ]);
    show "Table 3"
      (Model.Taskset.of_list [ task "tau1" "2.10" "5" "5" 7; task "tau2" "2.00" "7" "7" 7 ]);
    0
  in
  Cmd.v (Cmd.info "tables" ~doc:"Reproduce the paper's Tables 1-3") Term.(const run $ const ())

(* --- metrics-diff --- *)

let metrics_diff_cmd =
  let run path_a path_b det_only =
    let load path =
      match read_file path with
      | exception Sys_error msg -> Error msg
      | contents -> Result.map_error (fun msg -> path ^ ": " ^ msg) (Obs.Snapshot.of_jsonl contents)
    in
    match (load path_a, load path_b) with
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "error: %s\n" msg;
      3
    | Ok a, Ok b -> (
      match Obs.Snapshot.diff ~det_only a b with
      | [] ->
        print_endline (if det_only then "identical (deterministic metrics)" else "identical");
        0
      | lines ->
        List.iter print_endline lines;
        1)
  in
  let snapshot_arg i docv =
    Arg.(required & pos i (some file) None & info [] ~docv ~doc:"Metrics snapshot (JSON lines).")
  in
  let det_only_arg =
    Arg.(
      value & flag
      & info [ "det-only" ]
          ~doc:
            "Compare only deterministic counters and gauges — the values that must not depend on \
             the worker count; timers and occupancy metrics are ignored.")
  in
  let term =
    Term.(const run $ snapshot_arg 0 "A.jsonl" $ snapshot_arg 1 "B.jsonl" $ det_only_arg)
  in
  let info =
    Cmd.info "metrics-diff"
      ~doc:"Compare two metrics snapshots"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Compares two snapshots written by $(b,--metrics). Exit status 0 when they agree, 1 \
             when they differ (one line per difference on stdout), 3 when a snapshot cannot be \
             read. With $(b,--det-only) the comparison is restricted to metrics that are \
             deterministic by construction, which must be identical across $(b,-j) settings for \
             the same command.";
        ]
  in
  Cmd.v info term

(* --- check-src --- *)

let check_src_cmd =
  let run paths strict format rule_names =
    let rules =
      match rule_names with
      | None -> Ok Check.Rules.all
      | Some names ->
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.fold_left
             (fun acc name ->
               match (acc, Check.Rules.of_name name) with
               | Error _, _ -> acc
               | Ok _, None ->
                 Error
                   (Printf.sprintf "unknown rule %S (known rules: %s)" name
                      (String.concat ", " (List.map Check.Rules.name Check.Rules.all)))
               | Ok rules, Some r -> Ok (rules @ [ r ]))
             (Ok [])
    in
    match rules with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      3
    | Ok rules -> (
      match Check.Driver.run ~rules paths with
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        3
      | Ok report ->
        (match format with
         | `Json -> print_endline (Wire.Json.to_string (Check.Driver.to_json report))
         | `Human -> Format.printf "@[<v>%a@]@." Check.Driver.pp report);
        Check.Driver.exit_code ~strict report)
  in
  let paths_arg =
    Arg.(
      value
      & pos_all string [ "lib" ]
      & info [] ~docv:"PATH"
          ~doc:
            "What to check: a .cmt file, a directory scanned recursively for .cmt files, or a \
             source directory resolved through its _build/default mirror. Defaults to $(b,lib).")
  in
  let rule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rule" ] ~docv:"NAME,..."
          ~doc:
            "Comma-separated rule families to run instead of all four: det-purity, \
             domain-safety, exact-arith, poly-compare.")
  in
  let term = Term.(const run $ paths_arg $ strict_arg $ format_arg $ rule_arg) in
  let info =
    Cmd.info "check-src"
      ~doc:"Statically check the repository's own sources against its invariants"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "A typedtree-based static analysis over the repo's compiled .cmt files enforcing the \
             three contracts nothing else checks statically: byte-identical determinism for any \
             -j (rule $(b,det-purity): no Hashtbl.iter/fold, wall-clock reads or environment \
             reads in deterministic modules), domain-safety of shared state (rule \
             $(b,domain-safety): module-level mutable state must be Atomic/Mutex-guarded), and \
             exact integer/rational arithmetic in the decide paths (rules $(b,exact-arith) and \
             $(b,poly-compare): no float literals/comparisons, no polymorphic compare on types \
             with a custom ordering). A finding is silenced by [@redf.allow \"rule\" \
             \"justification\"] on the enclosing expression, binding or module; the \
             justification is mandatory. Exit status 0 when clean (with $(b,--strict): no \
             warnings either), 1 on findings, 3 when an input is unusable.";
        ]
  in
  Cmd.v info term

(* --- serve / batch --- *)

let cache_size_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Verdict-cache capacity in entries (canonical tasksets, LRU eviction); 0 disables \
           caching. Cached answers are byte-identical to uncached ones.")

let require_cache_size cache_size k =
  if cache_size < 0 then begin
    Printf.eprintf "error: invalid --cache-size %d: expected a non-negative entry count\n"
      cache_size;
    2
  end
  else k ()

let cache_shards_arg =
  Arg.(
    value & opt int 8
    & info [ "cache-shards" ] ~docv:"N"
        ~doc:
          "Split the verdict cache over $(docv) independently locked LRU shards (deterministic \
           key hash), so worker domains do not serialize on one cache mutex. Sharding never \
           changes response bytes.")

(* HOST:PORT with a numeric host (rindex, so bracket-less IPv6 works)
   or "localhost"; validated here as a usage error like --jobs *)
let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "invalid --listen %s: expected HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
    | _ -> Error (Printf.sprintf "invalid --listen %s: port must be an integer in 0..65535" s))

(* --- the transport flags and loop runner serve and admit share --- *)

type transport = {
  socket : string option;
  listen : (string * int) option;
  timeout : float option;
  idle_timeout : float option;
}

let transport_term =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving stdin/stdout; the \
             socket file is removed on shutdown. Combinable with $(b,--listen).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen on TCP $(docv) (numeric address or $(b,localhost); port 0 picks an \
             ephemeral port, announced on stderr). Combinable with $(b,--socket).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Drop a partially received request line after $(docv) seconds with an error \
             response, measured from when the partial started (trickling bytes does not extend \
             it). Idle connections never time out. Applies to stdin/stdout as to every socket \
             connection.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a connection (stdin/stdout included) that stayed completely idle — nothing \
             received, nothing owed — for $(docv) seconds (granularity: one loop tick, up to \
             0.5s). Off by default: idle connections are free to linger.")
  in
  let make socket listen timeout idle_timeout =
    Result.map
      (fun listen -> { socket; listen; timeout; idle_timeout })
      (match listen with None -> Ok None | Some s -> Result.map Option.some (parse_host_port s))
  in
  Term.(const make $ socket_arg $ listen_arg $ timeout_arg $ idle_timeout_arg)

(* Serve [handle_lines] over the endpoints [tr] names — a Unix socket
   and/or a TCP listener, or stdin/stdout when it names neither — until
   SIGINT/SIGTERM or the end of stdin.  Exit 0 once the loop is done,
   1 when an endpoint cannot be bound.  The stop signals are routed
   before any endpoint exists, so a supervisor that sees the socket can
   already TERM it. *)
let run_transport tr ?limits ?(is_mutation = fun _ -> false) handle_lines =
  let stop = Atomic.make false in
  let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigint on_stop;
  Sys.set_signal Sys.sigterm on_stop;
  match
    match (tr.socket, tr.listen) with
    | None, None -> [ Server.Loop.stdio_listener ~input:Unix.stdin ~output:Unix.stdout ]
    | socket, listen ->
      let unix_l = Option.map (fun path -> Server.Loop.unix_listener ~path) socket in
      let tcp_l =
        Option.map
          (fun (host, port) ->
            let l = Server.Loop.tcp_listener ~host ~port in
            Printf.eprintf "listening on %s:%d\n%!" host (Server.Loop.bound_port l);
            l)
          listen
      in
      List.filter_map Fun.id [ unix_l; tcp_l ]
  with
  | exception Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s(%s): %s\n" fn arg (Unix.error_message e);
    1
  | listeners ->
    let service =
      {
        Server.Loop.handle_lines;
        stop_requested = (fun () -> Atomic.get stop);
        shed_response = Server.Protocol.shed_response;
        is_mutation;
      }
    in
    Server.Loop.serve_service service ?timeout:tr.timeout ?idle_timeout:tr.idle_timeout ?limits
      listeners;
    0

let serve_cmd =
  let run transport cache_size shards max_pending max_inflight jobs metrics =
    with_jobs jobs @@ fun ~jobs ->
    require_cache_size cache_size @@ fun () ->
    require_positive "--cache-shards" shards @@ fun () ->
    require_positive "--max-pending" max_pending @@ fun () ->
    require_positive "--max-inflight" max_inflight @@ fun () ->
    match transport with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
    | Ok transport ->
      with_metrics metrics @@ fun () ->
      Server.Engine.with_engine ~cache_size ~shards ~jobs @@ fun engine ->
      let limits = { Server.Loop.default_limits with Server.Loop.max_pending; max_inflight } in
      run_transport transport ~limits (Server.Engine.handle_lines engine)
  in
  let max_pending_arg =
    Arg.(
      value & opt int Server.Loop.default_limits.Server.Loop.max_pending
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Per-connection backpressure bound: a connection with $(docv) unanswered requests \
             stops being read until they drain.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int Server.Loop.default_limits.Server.Loop.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Global admission bound: once $(docv) requests are queued across all connections, \
             further requests are answered immediately with a well-formed \
             $(b,server overloaded) error (load shedding) instead of queueing.")
  in
  let term =
    Term.(
      const run $ transport_term $ cache_size_arg $ cache_shards_arg $ max_pending_arg
      $ max_inflight_arg $ jobs_arg $ metrics_arg)
  in
  let info =
    Cmd.info "serve"
      ~doc:"Run the analysis service (line-oriented JSON requests)"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Reads one JSON request per line — \
             {\"analyzer\":\"GN2\",\"fpga_area\":10,\"tasks\":[{\"C\":\"1.26\",\"D\":\"7\",\"T\":\"7\",\"A\":9},...]} \
             — and writes one JSON verdict line per request, in request order, over stdin/stdout, \
             or over a Unix-domain socket ($(b,--socket)) and/or TCP ($(b,--listen)). One event \
             loop serves every connection, stdin/stdout included, with the same framing, \
             timeouts, backpressure and shedding, fanning request evaluation out over $(b,-j) \
             worker domains; per connection, responses are byte-identical to $(b,redf batch) on \
             the same lines. Verdicts are cached under a \
             canonical taskset key (task order and names do not matter) in a sharded LRU, so \
             repeated queries are answered from cache with byte-identical output. A malformed \
             request yields an error response and never terminates the service; SIGINT/SIGTERM \
             drain the requests already received before exiting. Responses match $(b,redf \
             analyze --format json) verdict for verdict.";
        ]
  in
  Cmd.v info term

let batch_cmd =
  let run file connect retries backoff_ms hold cache_size jobs metrics =
    with_jobs jobs @@ fun ~jobs ->
    require_cache_size cache_size @@ fun () ->
    if retries < 0 then begin
      Printf.eprintf "error: invalid --retries %d: expected a non-negative count\n" retries;
      2
    end
    else
      require_positive "--backoff-ms" backoff_ms @@ fun () ->
      with_metrics metrics @@ fun () ->
      match
        if file = "-" then Ok (In_channel.input_all stdin)
        else match read_file file with s -> Ok s | exception Sys_error msg -> Error msg
      with
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
      | Ok contents -> (
        let lines =
          String.split_on_char '\n' contents
          |> List.filter (fun l -> String.trim l <> "")
          |> Array.of_list
        in
        let ending = ref None in
        let responses =
          match connect with
          | Some path -> (
            let addr = Unix.ADDR_UNIX path in
            match hold with
            | Some hold ->
              Result.map
                (fun (responses, how) ->
                  ending := Some how;
                  responses)
                (Server.Engine.client_hold ~addr ~hold lines)
            | None -> Server.Engine.client_roundtrip_retry ~addr ~retries ~backoff_ms lines)
          | None ->
            Server.Engine.with_engine ~cache_size ~jobs @@ fun engine ->
            Ok (Server.Engine.handle_lines engine lines)
        in
        match responses with
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
        | Ok responses ->
          Array.iter print_endline responses;
          (match !ending with
          | None -> ()
          | Some `Closed_by_server -> print_endline "connection closed by server"
          | Some `Hold_expired -> print_endline "hold expired");
          0)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUESTS.jsonl"
          ~doc:"File of request lines (same schema as $(b,redf serve)); $(b,-) reads stdin.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Send the batch to a running $(b,redf serve --socket) (or $(b,redf admit --socket)) \
             $(docv) instead of evaluating in-process. Exits 1 when the connection ends before \
             every request is answered.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "With $(b,--connect): on a lost connection, reconnect and re-send only the \
             unanswered suffix of the batch, up to $(docv) times, with exponential backoff \
             (from $(b,--backoff-ms)) and jitter. Requests that already got a response are \
             never re-sent; re-sent admit mutations are deduplicated server-side by request id.")
  in
  let backoff_ms_arg =
    Arg.(
      value & opt int 50
      & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base retry backoff in milliseconds (doubled per retry).")
  in
  let hold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "hold" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--connect): after the responses arrive, keep the connection open and idle \
             for up to $(docv) seconds, then report whether the server closed it (the probe for \
             $(b,--idle-timeout)).")
  in
  let term =
    Term.(
      const run $ file_arg $ connect_arg $ retries_arg $ backoff_ms_arg $ hold_arg
      $ cache_size_arg $ jobs_arg $ metrics_arg)
  in
  let info =
    Cmd.info "batch"
      ~doc:"Evaluate a file of analysis-service requests"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Answers every request line of the file (blank lines ignored) and prints one \
             response line per request, in request order — exactly the lines $(b,redf serve) \
             would produce. By default the batch is evaluated in-process, sharing the verdict \
             cache and fanning out over $(b,-j) worker domains; with $(b,--connect) it is \
             pipelined to a running server over its Unix-domain socket.";
        ]
  in
  Cmd.v info term

(* --- admit / chaos-admit --- *)

let admit_analyzer_arg =
  Arg.(
    value & opt string "GN2"
    & info [ "analyzer" ] ~docv:"NAME"
        ~doc:"Admission-policy analyzer (registry name, case-insensitive).")

let admit_area_arg =
  Arg.(
    value & opt int 100
    & info [ "fpga-area" ] ~docv:"N" ~doc:"Device area A(H) the daemon admits against.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm journal fault injection: comma-separated per-mille probabilities, e.g. \
           $(b,torn=5,fsync=2,after-append=10). Also read from $(b,REDF_ADMIT_FAULTS) when the \
           flag is absent. Chaos-testing machinery: an injected fault makes the process die \
           like $(b,kill -9) would.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed for the fault plan; equal (spec, seed) pairs fire identically.")

let snapshot_every_arg =
  Arg.(
    value & opt int 1024
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Rewrite the snapshot and reset the journal after $(docv) journaled mutations \
           (bounds both journal growth and replay time).")

let resolve_faults faults fault_seed =
  let spec_string =
    match faults with
    | Some s -> Some s
    | None -> (
      match Sys.getenv_opt "REDF_ADMIT_FAULTS" with Some "" | None -> None | Some s -> Some s)
  in
  match spec_string with
  | None -> Ok None
  | Some s ->
    Result.map (fun spec -> Some (Admit.Faults.create ~seed:fault_seed spec)) (Admit.Faults.parse_spec s)

let admit_cmd =
  let run dir analyzer fpga_area transport snapshot_every faults fault_seed metrics =
    require_positive "--fpga-area" fpga_area @@ fun () ->
    require_positive "--snapshot-every" snapshot_every @@ fun () ->
    match
      let ( let* ) = Result.bind in
      let* transport = transport in
      let* analyzer = Core.Analyzer.of_name analyzer in
      let* faults = resolve_faults faults fault_seed in
      Ok (transport, analyzer, faults)
    with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
    | Ok (transport, analyzer, faults) -> (
      with_metrics metrics @@ fun () ->
      match Admit.Daemon.create ?faults ~snapshot_every ~analyzer ~fpga_area ~dir () with
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
      | Ok (daemon, recovery) -> (
        Printf.eprintf "admit: %s: recovered seq %d, %d tasks (%d journal records replayed%s)\n%!"
          dir
          (Admit.State.seq (Admit.Daemon.state daemon))
          (Admit.State.size (Admit.Daemon.state daemon))
          recovery.Admit.Store.replayed
          (if recovery.Admit.Store.torn_bytes > 0 then
             Printf.sprintf ", torn tail of %d bytes truncated" recovery.Admit.Store.torn_bytes
           else "");
        let handle_lines lines =
          Array.of_list (Admit.Daemon.handle_lines daemon (Array.to_list lines))
        in
        match run_transport transport ~is_mutation:Admit.Daemon.is_mutation handle_lines with
        | code ->
          Admit.Daemon.close daemon;
          code
        | exception Admit.Faults.Crash (fate, msg) ->
          (* injected kill -9: leave the journal exactly as-is and die
             loudly; recovery on the next start is the point *)
          Admit.Daemon.close daemon;
          Printf.eprintf "admit: injected crash (%s): %s\n"
            (match fate with
            | Admit.Faults.Torn -> "torn"
            | Admit.Faults.Lost -> "lost"
            | Admit.Faults.After_append -> "after-append")
            msg;
          7))
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "State directory (created if missing): write-ahead journal + snapshot. Recovery \
             replays it on start; kill the daemon at any point and restart it on the same \
             $(docv) to get the last acknowledged state back.")
  in
  let term =
    Term.(
      const run $ dir_arg $ admit_analyzer_arg $ admit_area_arg $ transport_term
      $ snapshot_every_arg $ faults_arg $ fault_seed_arg $ metrics_arg)
  in
  let info =
    Cmd.info "admit"
      ~doc:"Run the crash-safe online admission-control daemon"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Holds a live device model (one analyzer, one FPGA area) and the admitted taskset, \
             and answers one JSON request per line: $(b,add-task) (admitted iff the analyzer \
             accepts the grown taskset; the empty taskset is trivially schedulable), \
             $(b,remove-task), $(b,query), and $(b,what-if) (hypothetical adds/drops, nothing \
             mutated). Admitted mutations are appended to a CRC-framed write-ahead journal and \
             fsync'd $(i,before) the reply is sent, with periodic snapshot rotation; restarting \
             on the same $(b,--dir) replays journal + snapshot back to exactly the last \
             acknowledged state (a torn trailing record from a mid-write crash is truncated; a \
             corrupt interior record is refused with a diagnostic). Replies to mutations are \
             stored under their request $(b,id), so a client retrying after a lost reply gets \
             the original bytes back instead of a double apply. Serves stdin/stdout, or \
             $(b,--socket) and/or $(b,--listen), over the same event loop as $(b,redf serve); \
             under overload, mutations are shed only at twice the read-query threshold.";
        ]
  in
  Cmd.v info term

let chaos_admit_cmd =
  let run dir seed cycles ops faults analyzer fpga_area snapshot_every quiet =
    require_positive "--cycles" cycles @@ fun () ->
    require_positive "--ops" ops @@ fun () ->
    require_positive "--fpga-area" fpga_area @@ fun () ->
    require_positive "--snapshot-every" snapshot_every @@ fun () ->
    match
      let ( let* ) = Result.bind in
      let* analyzer = Core.Analyzer.of_name analyzer in
      let* spec =
        match faults with
        | None -> Ok Admit.Chaos.default_spec
        | Some s -> Admit.Faults.parse_spec s
      in
      Ok (analyzer, spec)
    with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
    | Ok (analyzer, spec) -> (
      let cfg =
        {
          (Admit.Chaos.default ~analyzer ~fpga_area) with
          Admit.Chaos.seed;
          cycles;
          ops_per_cycle = ops;
          spec;
          snapshot_every;
        }
      in
      let progress i =
        if (not quiet) && i mod 10 = 0 then Printf.eprintf "chaos-admit: cycle %d/%d\n%!" i cycles
      in
      match Admit.Chaos.run ~progress ~dir cfg with
      | Error msg ->
        Printf.eprintf "chaos-admit: FAIL (seed %d): %s\n" seed msg;
        1
      | Ok stats ->
        Format.printf "chaos-admit: ok (seed %d): %a@." seed Admit.Chaos.pp_stats stats;
        0)
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"State directory the tortured daemon lives in.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Run seed; equal seeds replay identically.")
  in
  let cycles_arg =
    Arg.(
      value & opt int 50
      & info [ "cycles" ] ~docv:"N" ~doc:"Daemon lifetimes (crash or drain, then recover) to drive.")
  in
  let ops_arg =
    Arg.(
      value & opt int 40
      & info [ "ops" ] ~docv:"N" ~doc:"Protocol-line budget per lifetime when no crash fires.")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"No per-cycle progress on stderr.") in
  let term =
    Term.(
      const run $ dir_arg $ seed_arg $ cycles_arg $ ops_arg $ faults_arg $ admit_analyzer_arg
      $ admit_area_arg $ snapshot_every_arg $ quiet_arg)
  in
  let info =
    Cmd.info "chaos-admit"
      ~doc:"Crash/restart-torture the admission daemon and check its recovery invariant"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Drives seeded random admit traffic against an in-process daemon whose journal has \
             fault injection armed (torn appends, failed fsyncs, crashes between append and \
             reply), killing and recovering it for $(b,--cycles) lifetimes over one state \
             directory. After every recovery the state must equal a reference model built from \
             acknowledged replies only (plus, for an after-append crash, exactly the one \
             durable-but-unacknowledged mutation, whose stored reply a duplicate-id retry must \
             return verbatim); every verdict on the wire is also checked field-for-field \
             against a from-scratch analyzer run. Any violation exits 1 with the seed to \
             replay.";
        ]
  in
  Cmd.v info term

let bench_core_cmd =
  let run budget_ms out compare tolerance =
    Bench_core.run ~budget_ms ~out ~compare ~tolerance
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the whole matrix. Rows cut short or skipped when it expires \
             are flagged $(b,truncated) in the JSON and excluded from comparison.")
  in
  let out_arg =
    Arg.(
      value
      & opt string Bench_core.default_out
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the schema-v3 bench-core document.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Baseline bench-core document (schema v3) to diff against; read before \
             $(b,--out) is written, so both may name the same committed file.")
  in
  let tolerance_arg =
    Arg.(
      value & opt string "1.5x"
      & info [ "tolerance" ] ~docv:"RATIO"
          ~doc:"Allowed current/baseline slowdown per row, e.g. $(b,1.5x).")
  in
  let term = Term.(const run $ budget_arg $ out_arg $ compare_arg $ tolerance_arg) in
  let info =
    Cmd.info "bench-core"
      ~doc:"Measure analyzer cost per decide; optionally gate on a committed baseline"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Times every analyzer (DP, GN1, GN2, approx, the exact oracle) on seed-fixed \
             workloads across taskset sizes, in single-decide and batch ($(b,decide_all)) \
             modes, and writes results/BENCH_core.json. With $(b,--compare), rows are matched \
             to the baseline by (analyzer, n, mode): a row slower than tolerance times its \
             baseline (and by a small absolute floor, to ignore micro-row jitter) is a \
             regression and the command exits 1 — the CI perf leg. A tripping row is \
             re-measured once and the faster run kept, so a one-off scheduling hiccup on a \
             shared runner does not fail the gate.";
        ]
  in
  Cmd.v info term

let main_cmd =
  let doc = "schedulability analysis of EDF scheduling on reconfigurable hardware" in
  let info =
    Cmd.info "redf" ~version:"1.0.0" ~doc
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Reproduction of Guan, Gu, Deng, Liu, Yu: 'Improved Schedulability Analysis of EDF \
             Scheduling on Reconfigurable Hardware Devices' (IPDPS 2007). See DESIGN.md and \
             EXPERIMENTS.md in the source tree.";
        ]
  in
  Cmd.group info
    [
      analyze_cmd;
      simulate_cmd;
      generate_cmd;
      sweep_cmd;
      tables_cmd;
      exhaustive_cmd;
      lint_cmd;
      audit_cmd;
      check_src_cmd;
      serve_cmd;
      admit_cmd;
      chaos_admit_cmd;
      bench_core_cmd;
      batch_cmd;
      metrics_diff_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
