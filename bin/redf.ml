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
     bench-core   analyzer cost matrix vs the committed baseline (CI perf gate)
     batch        send a file of service requests to a running server
     metrics-diff compare two --metrics snapshots

   Long-running subcommands accept --metrics[=FILE] to write a runtime
   metrics snapshot (JSON lines). *)

open Cmdliner

(* make the exact oracle and approx analyzers resolvable by name
   everywhere (analyze, serve, the cache) *)
let () = Exact.Registry.ensure ()

(* --- one error path --- *)

(* A verb stops by raising [Stop (code, line)]: [guard] prints [line]
   on stderr and returns [code] as the exit status.  Usage errors
   (a flag value out of range) exit 2. *)
exception Stop of int * string

let stop code line = raise (Stop (code, line))
let fail code fmt = Printf.ksprintf (fun msg -> stop code ("error: " ^ msg)) fmt
let ok code = function Ok v -> v | Error msg -> fail code "%s" msg

let guard run =
  match run () with
  | code -> code
  | exception Stop (code, line) ->
    Printf.eprintf "%s\n" line;
    code

(* a verb's term is its run function applied to every flag but a last
   unit, so the flag checks inside it run under [guard] *)
let verb ?description name ~doc term =
  let man = Option.map (fun p -> [ `S Manpage.s_description; `P p ]) description in
  Cmd.v (Cmd.info name ~doc ?man) Term.(const guard $ term)

(* --- flag checks, the same in every verb that takes the flag --- *)

let positive flag n = if n < 1 then fail 2 "invalid %s %d: expected a positive count" flag n else n

let positive_float flag ~what x =
  if x > 0. then x else fail 2 "invalid %s %g: expected a positive %s" flag x what

let non_negative flag ~what n =
  if n < 0 then fail 2 "invalid %s %d: expected a non-negative %s" flag n what else n

(* a flag in whole time units must be representable in ticks;
   [Model.Time.of_units] rejects what would wrap around *)
let units flag n =
  match Model.Time.of_units n with
  | t -> t
  | exception Invalid_argument _ -> fail 2 "invalid %s %d: out of range" flag n

(* -j / REDF_JOBS: a negative count or a garbage environment value is
   a usage error, not a silent fall-back to serial; 0 = one per core *)
let jobs = function
  | Some n when n >= 0 -> n
  | Some n -> fail 2 "invalid --jobs %d: expected a positive worker count or 0 (one per core)" n
  | None -> ok 2 (Parallel.jobs_of_env ())

(* the simulator rejects a task wider than the device; name it here
   instead of letting the engine's Invalid_argument escape *)
let fits ~fpga_area ts =
  List.iteri
    (fun i (t : Model.Task.t) ->
      if t.area > fpga_area then
        fail 1 "task %d (%s) is %d columns wide, wider than --area %d" (i + 1) t.name t.area
          fpga_area)
    (Model.Taskset.to_list ts)

(* --- files --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_taskset path =
  try Ok (Model.Taskset.of_csv (read_file path)) with
  | Sys_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let taskset path = ok 1 (load_taskset path)

(* open [path] for writing (truncated unless [flags] says otherwise),
   or stop with "cannot write WHAT PATH: REASON" *)
let open_write ?(flags = [ Unix.O_TRUNC ]) ~code what path =
  match Unix.openfile path (Unix.O_WRONLY :: O_CREAT :: O_CLOEXEC :: flags) 0o644 with
  | fd -> fd
  | exception Unix.Unix_error (e, _, _) ->
    fail code "cannot write %s %s: %s" what path (Unix.error_message e)

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
   the wrapped command fails, after its error line, so a non-zero exit
   still leaves its cost profile behind *)
let with_metrics metrics run =
  match metrics with
  | None -> run ()
  | Some dest ->
    let oc =
      if dest = "-" then stderr
      else Unix.out_channel_of_descr (open_write ~code:2 "metrics to" dest)
    in
    Obs.set_enabled true;
    let emit () =
      output_string oc (Obs.Snapshot.to_jsonl (Obs.Snapshot.take ()));
      if dest = "-" then flush oc else close_out oc
    in
    Fun.protect ~finally:emit (fun () -> guard run)

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

(* [verb] is the JSON [kind]; the human label adds the [file] a
   report of several is about, which JSON carries in its own member *)
let print_report ~verb ?file ~format report =
  match format with
  | `Json -> print_endline (Wire.Json.to_string (Audit.Driver.to_json ~kind:verb ?file report))
  | `Human ->
    let label = match file with Some f -> verb ^ " " ^ f | None -> verb in
    Format.printf "%a@." (Audit.Driver.pp ~label) report

(* a malformed taskset is itself a lint finding: report it in the same
   formats and exit 2 like any other error-level diagnostic *)
let parse_failure ~verb ?file ~format ~fpga_area msg =
  let report =
    {
      Audit.Driver.fpga_area;
      lint = [ Audit.Diagnostic.error ~rule:"taskset-parse" msg ];
      findings = [];
    }
  in
  print_report ~verb ?file ~format report;
  2

let lint_cmd =
  let run path fpga_area format strict () =
    let fpga_area = positive "--area" fpga_area in
    match load_taskset path with
    | Error msg -> parse_failure ~verb:"lint" ~format ~fpga_area msg
    | Ok ts ->
      let report = Audit.Driver.lint_only ~fpga_area ts in
      print_report ~verb:"lint" ~format report;
      Audit.Driver.exit_code ~strict report
  in
  verb "lint" ~doc:"Statically lint a taskset"
    ~description:
      "Checks the structural invariants the analyzers assume (per-task C <= min(D,T), tasks no \
       wider than the device, necessary feasibility conditions) plus hygiene rules (duplicate \
       names, degenerate utilizations, vacuous analyzer preconditions). Exit status 0 when no \
       error-level diagnostic fires (with $(b,--strict): no warning either), 2 otherwise."
    Term.(const run $ taskset_arg $ area_arg $ format_arg $ strict_arg)

(* each shrunk counterexample as a regression-fixture CSV in [dir] *)
let write_fixtures ~dir ~prefix report =
  List.iteri
    (fun i f ->
      match Audit.Consistency.fixture f with
      | None -> ()
      | Some csv ->
        let name =
          Printf.sprintf "%scounterexample-%d-%s.csv" prefix i
            (String.lowercase_ascii (Option.value f.Audit.Consistency.analyzer ~default:"x"))
        in
        let path = Filename.concat dir name in
        let oc = Unix.out_channel_of_descr (open_write ~code:1 "fixture" path) in
        output_string oc csv;
        close_out oc;
        Printf.eprintf "wrote regression fixture %s\n" path)
    report.Audit.Driver.findings

let audit_cmd =
  let run paths fpga_area format strict cap_units sporadic_seed inject_unsound no_shrink
      fixture_dir jobs_opt metrics () =
    let jobs = jobs jobs_opt in
    let fpga_area = positive "--area" fpga_area in
    let horizon_cap = units "--horizon-cap" cap_units in
    with_metrics metrics @@ fun () ->
    let config =
      {
        (Audit.Consistency.default_config ~fpga_area) with
        Audit.Consistency.horizon_cap;
        sporadic_seed;
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
      Result.map
        (Audit.Driver.run ~analyzers ~config ~jobs:inner_jobs ~fpga_area)
        (load_taskset path)
    in
    let results =
      if multi then
        Array.to_list (Parallel.parallel_map ~jobs (audit_one 1) (Array.of_list paths))
      else List.map (audit_one jobs) paths
    in
    let codes =
      List.map2
        (fun path result ->
          let file = if multi then Some (Filename.basename path) else None in
          match result with
          | Error msg -> parse_failure ~verb:"audit" ?file ~format ~fpga_area msg
          | Ok report ->
            print_report ~verb:"audit" ?file ~format report;
            Option.iter
              (fun dir ->
                let prefix =
                  if multi then Filename.remove_extension (Filename.basename path) ^ "-" else ""
                in
                write_fixtures ~dir ~prefix report)
              fixture_dir;
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
  let sporadic_seed_arg =
    Arg.(
      value & opt int 97
      & info [ "sporadic-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the sporadic release pattern audited beside the synchronous one (each \
             release delayed by up to 3 time units).")
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
  verb "audit" ~doc:"Lint a taskset and audit analyzer verdicts against simulation"
    ~description:
      "Runs the static lint pass, then cross-checks DP / GN1 / GN2 against the EDF-NF and \
       EDF-FkF simulator on the same taskset: an ACCEPT paired with an observed deadline miss \
       under a scheduler the test covers (DP and GN2 cover both schedulers, GN1 covers EDF-NF; \
       Theorem 3 makes GN2-ACCEPT imply EDF-NF schedulability) is a hard error, and every \
       recorded trace must satisfy the Lemma 1 / Lemma 2 occupancy floors and the physical \
       trace invariants. Counterexamples are shrunk to minimal tasksets. Several tasksets can \
       be audited in one invocation; with $(b,-j) the audits fan out over worker domains (one \
       domain per taskset, or across the analyzer/scheduler/release units of a single \
       taskset) with deterministic, order-preserving output. Exit status 0 when every taskset \
       is clean, 2 otherwise."
    Term.(
      const run $ tasksets_arg $ area_arg $ format_arg $ strict_arg $ cap_arg $ sporadic_seed_arg
      $ inject_arg $ no_shrink_arg $ fixture_dir_arg $ jobs_arg $ metrics_arg)

(* --- analyze --- *)

let analyze_cmd =
  let run path fpga_area analyzer_names format metrics () =
    let fpga_area = positive "--area" fpga_area in
    with_metrics metrics @@ fun () ->
    let ts = taskset path in
    let analyzers =
      match analyzer_names with
      | Some names -> ok 2 (Core.Analyzer.of_names names)
      | None -> Core.Analyzer.defaults
    in
    let report = Core.Report.run ~analyzers ~fpga_area ts in
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
    if List.exists Core.Verdict.accepted report.Core.Report.verdicts then 0 else 2
  in
  let analyzer_names_arg =
    let doc =
      Printf.sprintf
        "Comma-separated registry names to run instead of the defaults (registered analyzers: \
         %s; case-insensitive)."
        (String.concat ", " (Core.Analyzer.known_names ()))
    in
    Arg.(value & opt (some string) None & info [ "analyzer" ] ~docv:"NAMES" ~doc)
  in
  verb "analyze" ~doc:"Run the schedulability tests on a taskset"
    ~description:
      "Runs DP (Theorem 1), GN1 (Theorem 2), GN2 (Theorem 3) and the partitioned \
       first-fit-decreasing baseline on the taskset, printing per-task exact left/right-hand \
       sides. $(b,--analyzer) selects any registered analyzers instead, including the \
       uncorrected and printed variants ($(b,dp-original), $(b,gn1-printed)), the exact oracle \
       ($(b,exact), $(b,exact-fkf)) and the approximate demand test ($(b,approx[EPS])). With \
       $(b,--format json) the report is one canonical JSON object whose per-analyzer verdicts \
       are byte-identical to the analysis service's responses ($(b,redf serve)). Exit status \
       0 when at least one selected analyzer accepts, 2 when all reject."
    Term.(const run $ taskset_arg $ area_arg $ analyzer_names_arg $ format_arg $ metrics_arg)

(* --- simulate --- *)

let simulate_cmd =
  let run path fpga_area horizon policy gantt contiguous metrics () =
    let fpga_area = positive "--area" fpga_area in
    let horizon = positive "--horizon" horizon in
    let horizon_t = units "--horizon" horizon in
    with_metrics metrics @@ fun () ->
    let ts = taskset path in
    fits ~fpga_area ts;
    let cfg =
      {
        (Sim.Engine.default_config ~fpga_area ~policy) with
        Sim.Engine.horizon = horizon_t;
        record_trace = gantt;
        placement =
          (if contiguous then Sim.Engine.Contiguous Fpga.Device.First_fit else Sim.Engine.Migrating);
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
    Format.printf "jobs: %d released, %d completed; preemptions: %d; contended time: %s units@."
      s.Sim.Engine.jobs_released s.Sim.Engine.jobs_completed s.Sim.Engine.preemptions
      (Model.Time.to_string (Model.Time.of_ticks s.Sim.Engine.contended_ticks));
    Format.printf "mean occupied area: %.1f / %d columns@."
      (Sim.Engine.average_busy_area result)
      fpga_area;
    if gantt then print_string (Trace.Gantt.render ~fpga_area ts result);
    match result.Sim.Engine.outcome with Sim.Engine.No_miss -> 0 | Sim.Engine.Miss _ -> 2
  in
  let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.") in
  let contiguous_arg =
    Arg.(
      value & flag
      & info [ "contiguous" ]
          ~doc:"Contiguous first-fit placement instead of unrestricted migration.")
  in
  verb "simulate" ~doc:"Simulate EDF-NF or EDF-FkF scheduling of a taskset"
    Term.(
      const run $ taskset_arg $ area_arg $ horizon_arg $ policy_arg $ gantt_arg $ contiguous_arg
      $ metrics_arg)

(* --- generate --- *)

let generate_cmd =
  let run profile n seed target () =
    let n = positive "-n" n in
    let target = Option.map (positive_float "--target-us" ~what:"utilization") target in
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
    | None -> stop 1 "target utilization unreachable for this profile"
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
  verb "generate" ~doc:"Generate a synthetic taskset CSV on stdout"
    Term.(const run $ profile_arg $ n_arg $ seed_arg $ target_arg)

(* --- sweep --- *)

let sweep_cmd =
  let run figure_name samples seed horizon csv jobs_opt metrics () =
    let jobs = jobs jobs_opt in
    let samples = positive "--samples" samples in
    let sim_horizon = units "--horizon" (positive "--horizon" horizon) in
    with_metrics metrics @@ fun () ->
    let figure =
      match
        List.find_opt (fun f -> Experiment.Figures.id f = figure_name) Experiment.Figures.all
      with
      | Some figure -> figure
      | None ->
        stop 1
          (Printf.sprintf "unknown figure %S (use fig3a, fig3b, fig4a or fig4b)" figure_name)
    in
    let cfg = Experiment.Figures.config ~samples ~seed ~sim_horizon figure in
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
  verb "sweep" ~doc:"Regenerate one of the paper's figures"
    Term.(
      const run $ figure_arg $ samples_arg $ seed_arg $ horizon_arg $ csv_arg $ jobs_arg
      $ metrics_arg)

(* --- exhaustive --- *)

let exhaustive_cmd =
  let run path fpga_area policy grid_ticks max_combinations jobs_opt metrics () =
    let jobs = jobs jobs_opt in
    let fpga_area = positive "--area" fpga_area in
    let grid = Model.Time.of_ticks (positive "--grid" grid_ticks) in
    with_metrics metrics @@ fun () ->
    let ts = taskset path in
    fits ~fpga_area ts;
    match Sim.Exhaustive.search ~grid ~max_combinations ~jobs ~fpga_area ~policy ts with
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
      stop 1
        (Printf.sprintf "search space too large (%d combinations); coarsen --grid or raise --max"
           combinations)
    | Sim.Exhaustive.Hyperperiod_too_large ->
      stop 1 "hyper-period exceeds the simulation cap; not searchable"
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
  verb "exhaustive" ~doc:"Exhaustively search release offsets for a deadline miss (small tasksets)"
    Term.(
      const run $ taskset_arg $ area_arg $ policy_arg $ grid_arg $ max_arg $ jobs_arg $ metrics_arg)

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
  verb "tables" ~doc:"Reproduce the paper's Tables 1-3" Term.(const run)

(* --- metrics-diff --- *)

let metrics_diff_cmd =
  let run path_a path_b det_only () =
    let load path =
      match read_file path with
      | exception Sys_error msg -> fail 3 "%s" msg
      | contents ->
        ok 3 (Result.map_error (fun msg -> path ^ ": " ^ msg) (Obs.Snapshot.of_jsonl contents))
    in
    let a = load path_a in
    let b = load path_b in
    match Obs.Snapshot.diff ~det_only a b with
    | [] ->
      print_endline (if det_only then "identical (deterministic metrics)" else "identical");
      0
    | lines ->
      List.iter print_endline lines;
      1
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
  verb "metrics-diff" ~doc:"Compare two metrics snapshots"
    ~description:
      "Compares two snapshots written by $(b,--metrics). Exit status 0 when they agree, 1 when \
       they differ (one line per difference on stdout), 3 when a snapshot cannot be read. With \
       $(b,--det-only) the comparison is restricted to metrics that are deterministic by \
       construction, which must be identical across $(b,-j) settings for the same command."
    Term.(const run $ snapshot_arg 0 "A.jsonl" $ snapshot_arg 1 "B.jsonl" $ det_only_arg)

(* --- check-src --- *)

let check_src_cmd =
  let run paths strict format rule_names () =
    let rule name =
      match Check.Rules.of_name name with
      | Some r -> r
      | None ->
        fail 3 "unknown rule %S (known rules: %s)" name
          (String.concat ", " (List.map Check.Rules.name Check.Rules.all))
    in
    let rules =
      match rule_names with
      | None -> Check.Rules.all
      | Some names ->
        String.split_on_char ',' names
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map rule
    in
    let report = ok 3 (Check.Driver.run ~rules paths) in
    (match format with
     | `Json -> print_endline (Wire.Json.to_string (Check.Driver.to_json report))
     | `Human -> Format.printf "@[<v>%a@]@." Check.Driver.pp report);
    Check.Driver.exit_code ~strict report
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
  verb "check-src" ~doc:"Statically check the repository's own sources against its invariants"
    ~description:
      "A typedtree-based static analysis over the repo's compiled .cmt files enforcing the \
       three contracts nothing else checks statically: byte-identical determinism for any -j \
       (rule $(b,det-purity): no Hashtbl.iter/fold, wall-clock reads or environment reads in \
       deterministic modules), domain-safety of shared state (rule $(b,domain-safety): \
       module-level mutable state must be Atomic/Mutex-guarded), and exact integer/rational \
       arithmetic in the decide paths (rules $(b,exact-arith) and $(b,poly-compare): no float \
       literals/comparisons, no polymorphic compare on types with a custom ordering). A finding \
       is silenced by [@redf.allow \"rule\" \"justification\"] on the enclosing expression, \
       binding or module; the justification is mandatory. Exit status 0 when clean (with \
       $(b,--strict): no warnings either), 1 on findings, 3 when an input is unusable."
    Term.(const run $ paths_arg $ strict_arg $ format_arg $ rule_arg)

(* --- the transport flags and loop runner serve and admit share --- *)

type transport = {
  socket : string option;
  listen : (string * int) option;
  timeout : float option;
  idle_timeout : float option;
}

(* HOST:PORT with a numeric host (rindex, so bracket-less IPv6 works)
   or "localhost" *)
let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> fail 2 "invalid --listen %s: expected HOST:PORT" s
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p >= 0 && p <= 65535 -> (host, p)
    | _ -> fail 2 "invalid --listen %s: port must be an integer in 0..65535" s)

(* the term's value checks the flags when the verb calls it *)
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
  let make socket listen timeout idle_timeout () =
    let seconds flag = Option.map (positive_float flag ~what:"number of seconds") in
    {
      socket;
      listen = Option.map parse_host_port listen;
      timeout = seconds "--timeout" timeout;
      idle_timeout = seconds "--idle-timeout" idle_timeout;
    }
  in
  Term.(const make $ socket_arg $ listen_arg $ timeout_arg $ idle_timeout_arg)

(* Serve [handle_lines] over the endpoints [tr] names — a Unix socket
   and/or a TCP listener, or stdin/stdout when it names neither — until
   SIGINT/SIGTERM or the end of stdin.  Exit 0 once the loop is done,
   1 when an endpoint cannot be bound.  The stop signals are routed
   before any endpoint exists, so a supervisor that sees the socket can
   already TERM it. *)
let run_transport tr ?limits ?(is_mutation = fun _ -> false) handle_lines =
  let stop_flag = Atomic.make false in
  let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
  Sys.set_signal Sys.sigint on_stop;
  Sys.set_signal Sys.sigterm on_stop;
  let listeners =
    try
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
    | Failure msg -> fail 1 "%s" msg
    | Unix.Unix_error (e, fn, arg) -> fail 1 "%s(%s): %s" fn arg (Unix.error_message e)
  in
  let service =
    {
      Server.Loop.handle_lines;
      stop_requested = (fun () -> Atomic.get stop_flag);
      shed_response = Server.Protocol.shed_response;
      is_mutation;
    }
  in
  Server.Loop.serve_service service ?timeout:tr.timeout ?idle_timeout:tr.idle_timeout ?limits
    listeners;
  0

(* --- serve / batch --- *)

let serve_cmd =
  let run transport cache_size max_pending max_inflight jobs_opt metrics () =
    let jobs = jobs jobs_opt in
    let cache_size = non_negative "--cache-size" ~what:"entry count" cache_size in
    let max_pending = positive "--max-pending" max_pending in
    let max_inflight = positive "--max-inflight" max_inflight in
    let transport = transport () in
    with_metrics metrics @@ fun () ->
    Server.Engine.with_engine ~cache_size ~jobs @@ fun engine ->
    let limits = { Server.Loop.default_limits with Server.Loop.max_pending; max_inflight } in
    run_transport transport ~limits (Server.Engine.handle_lines engine)
  in
  let cache_size_arg =
    Arg.(
      value & opt int 4096
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Verdict-cache capacity in entries (canonical tasksets, LRU eviction); 0 disables \
             caching. Cached answers are byte-identical to uncached ones.")
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
  verb "serve" ~doc:"Run the analysis service (line-oriented JSON requests)"
    ~description:
      "Reads one JSON request per line — \
       {\"analyzer\":\"GN2\",\"fpga_area\":10,\"tasks\":[{\"C\":\"1.26\",\"D\":\"7\",\"T\":\"7\",\"A\":9},...]} \
       — and writes one JSON verdict line per request, in request order, over stdin/stdout, or \
       over a Unix-domain socket ($(b,--socket)) and/or TCP ($(b,--listen)). One event loop \
       serves every connection, stdin/stdout included, with the same framing (a 16 MiB line \
       cap), timeouts, backpressure and shedding, fanning request evaluation out over $(b,-j) \
       worker domains; per connection, responses are byte-identical whatever the transport, \
       so $(b,redf serve < FILE) answers a file of requests as $(b,redf batch FILE --connect) \
       does over a socket. Verdicts are cached under a canonical taskset key (task order and \
       names do not matter) in a sharded LRU, so repeated queries are answered from cache with \
       byte-identical output. A malformed request yields an error response and never \
       terminates the service; SIGINT/SIGTERM drain the requests already received before \
       exiting. Responses match $(b,redf analyze --format json) verdict for verdict."
    Term.(
      const run $ transport_term $ cache_size_arg $ max_pending_arg $ max_inflight_arg $ jobs_arg
      $ metrics_arg)

let batch_cmd =
  let run file connect retries backoff_ms hold () =
    let retries = non_negative "--retries" ~what:"count" retries in
    let backoff_ms = positive "--backoff-ms" backoff_ms in
    let contents =
      if file = "-" then In_channel.input_all stdin
      else try read_file file with Sys_error msg -> fail 1 "%s" msg
    in
    let lines =
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
      |> Array.of_list
    in
    let addr = Unix.ADDR_UNIX connect in
    match hold with
    | None ->
      Array.iter print_endline
        (ok 1 (Server.Engine.client_roundtrip_retry ~addr ~retries ~backoff_ms lines));
      0
    | Some hold ->
      let responses, ending = ok 1 (Server.Engine.client_hold ~addr ~hold lines) in
      Array.iter print_endline responses;
      print_endline
        (match ending with
         | `Closed_by_server -> "connection closed by server"
         | `Hold_expired -> "hold expired");
      0
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
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "The Unix-domain socket of a running $(b,redf serve --socket) (or $(b,redf admit \
             --socket)) to send the batch to. Exits 1 when the connection ends before every \
             request is answered.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "On a lost connection, reconnect and re-send only the unanswered suffix of the \
             batch, up to $(docv) times, with exponential backoff (from $(b,--backoff-ms)) and \
             jitter. Requests that already got a response are never re-sent; a re-sent admit \
             mutation is never applied twice, and gets its original reply back if its request id \
             is among the daemon's last $(b,--dedup-window) mutations.")
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
            "After the responses arrive, keep the connection open and idle for up to $(docv) \
             seconds, then report whether the server closed it (the probe for \
             $(b,--idle-timeout)).")
  in
  verb "batch" ~doc:"Send a file of analysis-service requests to a running server"
    ~description:
      "Pipelines every request line of the file (blank lines ignored) to a running server over \
       its Unix-domain socket ($(b,--connect)) and prints one response line per request, in \
       request order. To answer a file without a server, run $(b,redf serve < FILE): the same \
       engine behind the same framing, on stdin/stdout."
    Term.(const run $ file_arg $ connect_arg $ retries_arg $ backoff_ms_arg $ hold_arg)

(* --- admit --- *)

let admit_cmd =
  let run dir analyzer fpga_area transport snapshot_every dedup_window faults metrics () =
    let fpga_area = positive "--fpga-area" fpga_area in
    let snapshot_every = positive "--snapshot-every" snapshot_every in
    let dedup_window = positive "--dedup-window" dedup_window in
    let transport = transport () in
    let analyzer = ok 2 (Core.Analyzer.of_name analyzer) in
    (* the plan seed is fixed: a spec fires identically on every run *)
    let faults =
      Option.map (fun s -> Admit.Faults.create ~seed:1 (ok 2 (Admit.Faults.parse_spec s))) faults
    in
    with_metrics metrics @@ fun () ->
    let daemon, recovery =
      ok 1 (Admit.Daemon.create ?faults ~snapshot_every ~dedup_window ~analyzer ~fpga_area ~dir ())
    in
    Printf.eprintf "admit: %s: recovered seq %d, %d tasks (%d journal records replayed%s)\n%!" dir
      (Admit.State.seq (Admit.Daemon.state daemon))
      (Admit.State.size (Admit.Daemon.state daemon))
      recovery.Admit.Store.replayed
      (if recovery.Admit.Store.torn_bytes > 0 then
         Printf.sprintf ", torn tail of %d bytes truncated" recovery.Admit.Store.torn_bytes
       else "");
    Fun.protect ~finally:(fun () -> Admit.Daemon.close daemon) @@ fun () ->
    match
      run_transport transport ~is_mutation:Admit.Daemon.is_mutation
        (Admit.Daemon.handle_lines daemon)
    with
    | code -> code
    | exception Admit.Faults.Crash (fate, msg) ->
      (* injected kill -9: leave the journal exactly as-is and die
         loudly; recovery on the next start is the point *)
      stop 7
        (Printf.sprintf "admit: injected crash (%s): %s"
           (match fate with
            | Admit.Faults.Torn -> "torn"
            | Admit.Faults.Lost -> "lost"
            | Admit.Faults.After_append -> "after-append")
           msg)
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
  let analyzer_arg =
    Arg.(
      value & opt string "GN2"
      & info [ "analyzer" ] ~docv:"NAME"
          ~doc:"Admission-policy analyzer (registry name, case-insensitive).")
  in
  let area_arg =
    Arg.(
      value & opt int 100
      & info [ "fpga-area" ] ~docv:"N" ~doc:"Device area A(H) the daemon admits against.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Arm journal fault injection: comma-separated per-mille probabilities, e.g. \
             $(b,torn=5,fsync=2,after-append=10). Chaos-testing machinery: an injected fault makes \
             the process die like $(b,kill -9) would.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int Admit.Store.default_snapshot_every
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Rewrite the snapshot and reset the journal after $(docv) journaled mutations \
             (bounds both journal growth and replay time).")
  in
  let dedup_window_arg =
    Arg.(
      value & opt int Admit.Store.default_dedup_window
      & info [ "dedup-window" ] ~docv:"N"
          ~doc:
            "Keep the reply bytes of the last $(docv) mutations for retries by request id. An \
             older id keeps only the seq it was applied at: its retry is answered with the error \
             $(b,reply expired (seq S)) and is not applied again.")
  in
  verb "admit" ~doc:"Run the crash-safe online admission-control daemon"
    ~description:
      "Holds a live device model (one analyzer, one FPGA area) and the admitted taskset, and \
       answers one JSON request per line: $(b,add-task) (admitted iff the analyzer accepts the \
       grown taskset; the empty taskset is trivially schedulable), $(b,remove-task), \
       $(b,query), and $(b,what-if) (hypothetical adds/drops, nothing mutated). Admitted \
       mutations are appended to a CRC-framed write-ahead journal and fsync'd, once per batch of \
       lines read together, $(i,before) any of their replies is sent, with periodic snapshot \
       rotation; restarting on the same $(b,--dir) replays journal + snapshot back to the last \
       acknowledged state, plus possibly some mutations of the batch in flight, whose replies \
       were never sent (a torn trailing record from a mid-write crash is truncated; a corrupt \
       interior record is refused with a diagnostic). Replies to mutations are stored under \
       their request $(b,id), so a client retrying after a lost reply gets the original bytes \
       back instead of a double apply, within the last $(b,--dedup-window) mutations; an older \
       id is still never applied twice, and its retry gets $(b,reply expired (seq S)). \
       Serves stdin/stdout, or $(b,--socket) and/or $(b,--listen), over the same event loop as \
       $(b,redf serve); under overload, mutations are shed only at twice the read-query \
       threshold."
    Term.(
      const run $ dir_arg $ analyzer_arg $ area_arg $ transport_term $ snapshot_every_arg
      $ dedup_window_arg $ faults_arg $ metrics_arg)

(* --- bench-core --- *)

let bench_core_cmd =
  let run out compare () =
    let baseline =
      match Bench.Core_bench.load_baseline compare with Ok b -> b | Error line -> stop 2 line
    in
    (* find an unusable --out before the matrix runs.  Not truncated
       here, since --compare may name the same file; a parent that
       cannot be made fails the open with its reason *)
    (try Bench.Core_bench.ensure_parent_dir out with Sys_error _ -> ());
    Unix.close (open_write ~flags:[] ~code:2 "--out" out);
    Bench.Core_bench.run ~out ~baseline
  in
  let out_arg =
    Arg.(
      value
      & opt string Bench.Core_bench.default_out
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the schema-v4 bench-core document.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Baseline bench-core document (schema v4) to diff against; read before \
             $(b,--out) is written, so both may name the same committed file.")
  in
  verb "bench-core" ~doc:"Measure analyzer cost per decide; optionally gate on a committed baseline"
    ~description:
      "Times every analyzer (DP, GN1, GN2, approx, the exact oracle) on seed-fixed workloads \
       across taskset sizes, in single-decide and batch ($(b,decide_all)) modes, and writes \
       results/BENCH_core.json. Each row makes one warm-up call, then calls until 200 ms have \
       passed. With $(b,--compare), rows are matched to the baseline by (analyzer, n, mode): a \
       row more than 1.5 times slower than its baseline (and by a small absolute floor, to \
       ignore micro-row jitter) is a regression and the command exits 1 — the CI perf leg. A \
       tripping row is re-measured once and the faster run kept, so a one-off scheduling \
       hiccup on a shared runner does not fail the gate."
    Term.(const run $ out_arg $ compare_arg)

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
      bench_core_cmd;
      batch_cmd;
      metrics_diff_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
