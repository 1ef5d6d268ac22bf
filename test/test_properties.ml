(* Cross-module property tests.  These check the paper's theorems
   empirically on random tasksets:

   - soundness: a taskset accepted by DP / GN1 / GN2 must simulate without
     a deadline miss under the matching scheduler.  Periods are drawn from
     {2,4,5,8,10} time units so the hyper-period divides 40 and, for a
     synchronous implicit-deadline set, a miss-free simulation over one
     hyper-period is a complete certificate for the synchronous case;
   - Danne's dominance theorem: EDF-FkF-schedulable implies
     EDF-NF-schedulable (observed per release pattern);
   - Lemmas 1 and 2: the simulator's work-conserving alpha flags;
   - every recorded trace satisfies the physical invariants. *)

module Time = Model.Time
module Engine = Sim.Engine
module Policy = Sim.Policy

let fpga_area = 10

let task_gen =
  QCheck2.Gen.(
    let* t_units = oneofl [ 2; 4; 5; 8; 10 ] in
    let period = Time.of_units t_units in
    let* c_ticks = int_range 1 (Time.ticks period) in
    let* area = int_range 1 10 in
    return (Model.Task.make ~exec:(Time.of_ticks c_ticks) ~deadline:period ~period ~area ()))

let taskset_gen =
  QCheck2.Gen.(list_size (int_range 2 5) task_gen >|= Model.Taskset.of_list)

(* bias towards schedulable sets so the soundness implications are not
   vacuous: scale execution times down by a random factor *)
let light_taskset_gen =
  QCheck2.Gen.(
    let* ts = taskset_gen in
    let* divisor = int_range 1 8 in
    return
      (Model.Taskset.of_list
         (List.map
            (fun (t : Model.Task.t) ->
              let c = max 1 (Time.ticks t.exec / divisor) in
              { t with Model.Task.exec = Time.of_ticks c })
            (Model.Taskset.to_list ts))))

let hyperperiod_exn ts =
  match Model.Taskset.hyperperiod ts with
  | Model.Taskset.Finite h -> h
  | Model.Taskset.Exceeds_cap -> Alcotest.fail "generator must produce finite hyperperiods"

let run_sim ?(record = false) ~policy ts =
  let cfg = Engine.default_config ~fpga_area ~policy in
  Engine.run { cfg with Engine.horizon = hyperperiod_exn ts; record_trace = record } ts

let miss_free r = r.Engine.outcome = Engine.No_miss

let soundness name accepts policy =
  Core_helpers.qtest ~count:500 name light_taskset_gen (fun ts ->
      (not (accepts ~fpga_area ts)) || miss_free (run_sim ~policy ts))

let prop_dp_sound_fkf =
  soundness "DP accept => EDF-FkF miss-free" Core.Analyzer.(accepts dp) Policy.edf_fkf

let prop_dp_sound_nf =
  soundness "DP accept => EDF-NF miss-free" Core.Analyzer.(accepts dp) Policy.edf_nf

let prop_gn1_sound_nf =
  soundness "GN1 accept => EDF-NF miss-free" Core.Analyzer.(accepts gn1) Policy.edf_nf

let prop_gn2_sound_fkf =
  soundness "GN2 accept => EDF-FkF miss-free" Core.Analyzer.(accepts gn2) Policy.edf_fkf

let prop_gn2_sound_nf =
  soundness "GN2 accept => EDF-NF miss-free" Core.Analyzer.(accepts gn2) Policy.edf_nf

let prop_composite_sound =
  soundness "composite accept => EDF-NF miss-free" Core_helpers.any_accepts Policy.edf_nf

(* the tests cover sporadic tasks: acceptance must survive randomly
   delayed arrivals too (periods become minimum inter-arrival times) *)
let sporadic_soundness name accepts policy =
  Core_helpers.qtest ~count:300 name light_taskset_gen (fun ts ->
      (not (accepts ~fpga_area ts))
      ||
      let cfg = Engine.default_config ~fpga_area ~policy in
      let cfg =
        {
          cfg with
          Engine.horizon = Time.of_units 200;
          Engine.release = Engine.Sporadic { seed = 97; max_delay = Time.of_units 3 };
        }
      in
      miss_free (Engine.run cfg ts))

let prop_dp_sound_sporadic =
  sporadic_soundness "DP accept => sporadic EDF-FkF miss-free" Core.Analyzer.(accepts dp)
    Policy.edf_fkf

let prop_gn1_sound_sporadic =
  sporadic_soundness "GN1 accept => sporadic EDF-NF miss-free" Core.Analyzer.(accepts gn1)
    Policy.edf_nf

let prop_gn2_sound_sporadic =
  sporadic_soundness "GN2 accept => sporadic EDF-FkF miss-free" Core.Analyzer.(accepts gn2)
    Policy.edf_fkf

(* Danne et al. [9]: if a taskset is EDF-FkF-schedulable it is also
   EDF-NF-schedulable.  We observe it per synchronous release pattern. *)
let prop_nf_dominates_fkf =
  Core_helpers.qtest ~count:500 "EDF-FkF miss-free => EDF-NF miss-free" taskset_gen (fun ts ->
      (not (miss_free (run_sim ~policy:Policy.edf_fkf ts)))
      || miss_free (run_sim ~policy:Policy.edf_nf ts))

(* Lemma 1 / Lemma 2 as measured by the simulator. *)
let prop_fkf_alpha =
  Core_helpers.qtest ~count:300 "EDF-FkF is global-alpha-work-conserving" taskset_gen (fun ts ->
      (run_sim ~policy:Policy.edf_fkf ts).Engine.stats.fkf_alpha_respected)

let prop_nf_alpha =
  Core_helpers.qtest ~count:300 "EDF-NF is interval-alpha-work-conserving" taskset_gen (fun ts ->
      (run_sim ~policy:Policy.edf_nf ts).Engine.stats.nf_alpha_respected)

(* Every recorded trace passes the physical invariant checker, for both
   policies and both placement modes. *)
let prop_traces_valid =
  Core_helpers.qtest ~count:150 "traces satisfy physical invariants" taskset_gen (fun ts ->
      List.for_all
        (fun (policy, placement) ->
          let cfg = Engine.default_config ~fpga_area ~policy in
          let cfg =
            { cfg with Engine.horizon = hyperperiod_exn ts; record_trace = true; placement }
          in
          Trace.Checker.check ~fpga_area (Engine.run cfg ts) = [])
        [
          (Policy.edf_nf, Engine.Migrating);
          (Policy.edf_fkf, Engine.Migrating);
          (Policy.edf_nf, Engine.Contiguous Fpga.Device.First_fit);
          (Policy.edf_fkf, Engine.Contiguous Fpga.Device.Best_fit);
        ])

(* The Lemma-2 checker agrees with the engine's incremental flag. *)
let prop_checker_agrees_with_flag =
  Core_helpers.qtest ~count:150 "NF alpha checker = engine flag" taskset_gen (fun ts ->
      let r = run_sim ~record:true ~policy:Policy.edf_nf ts in
      let flag = r.Engine.stats.nf_alpha_respected in
      let checker = Trace.Checker.check_nf_work_conserving ~fpga_area r = [] in
      flag = checker)

(* Simulation is deterministic. *)
let prop_sim_deterministic =
  Core_helpers.qtest ~count:100 "simulation deterministic" taskset_gen (fun ts ->
      let a = run_sim ~policy:Policy.edf_nf ts in
      let b = run_sim ~policy:Policy.edf_nf ts in
      a.Engine.outcome = b.Engine.outcome
      && a.Engine.stats.busy_column_ticks = b.Engine.stats.busy_column_ticks
      && a.Engine.stats.jobs_released = b.Engine.stats.jobs_released)

(* Under the paper's assumptions the GN1 (Lemma-3 form) is at least as
   accepting as the printed Theorem-2 variant, and integer-corrected DP is
   at least as accepting as Danne's original. *)
let prop_gn1_forms_ordered =
  Core_helpers.qtest ~count:300 "GN1 printed => GN1 lemma-3 form" light_taskset_gen (fun ts ->
      (not (Core.Analyzer.(accepts gn1_printed) ~fpga_area ts))
      || Core.Analyzer.(accepts gn1) ~fpga_area ts)

let prop_dp_forms_ordered =
  Core_helpers.qtest ~count:300 "DP original => DP corrected" light_taskset_gen (fun ts ->
      (not (Core.Analyzer.(accepts dp_original) ~fpga_area ts))
      || Core.Analyzer.(accepts dp) ~fpga_area ts)

(* Width-1 reduction on random sets: DP coincides with the direct GFB
   formula (Analyzer_reference.Gfb). *)
let width1_taskset_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6) task_gen
    >|= fun l ->
    Model.Taskset.of_list (List.map (fun (t : Model.Task.t) -> { t with Model.Task.area = 1 }) l))

let prop_width1_gfb =
  Core_helpers.qtest ~count:300 "width-1 DP = direct GFB" width1_taskset_gen (fun ts ->
      List.for_all
        (fun m -> Core.Analyzer.(accepts dp) ~fpga_area:m ts = Analyzer_reference.Gfb.accepts ~m ts)
        [ 1; 2; 3; 5 ])

(* The audit subsystem on the same generators: the consistency auditor
   must never find an inconsistency among the real analyzers and the
   simulator (this routes every generated taskset through the full
   lint + cross-analyzer audit), and the linter must stay consistent
   with the feasibility checker it surfaces. *)
let audit_config =
  { (Audit.Consistency.default_config ~fpga_area) with Audit.Consistency.shrink = false }

let no_inconsistency ts =
  List.for_all
    (fun (f : Audit.Consistency.finding) ->
      f.Audit.Consistency.severity = Audit.Diagnostic.Info)
    (Audit.Consistency.audit audit_config ts)

let prop_auditor_light = Core_helpers.qtest ~count:200 "auditor: no inconsistency (light sets)" light_taskset_gen no_inconsistency

let prop_auditor_heavy =
  Core_helpers.qtest ~count:200 "auditor: no inconsistency (unbiased sets)" taskset_gen
    no_inconsistency

let prop_lint_matches_feasibility =
  Core_helpers.qtest ~count:300 "lint errors iff infeasible or oversized" taskset_gen (fun ts ->
      let errors = Audit.Diagnostic.has_errors (Audit.Lint.lint ~fpga_area ts) in
      let infeasible =
        Core.Feasibility.check ~fpga_area ts <> [] || not (Model.Taskset.fits ts ~fpga_area)
      in
      errors = infeasible)

let prop_driver_clean_implies_accept_safe =
  Core_helpers.qtest ~count:100 "driver report agrees with its diagnostics" light_taskset_gen
    (fun ts ->
      let report = Audit.Driver.run ~config:audit_config ~fpga_area ts in
      Audit.Driver.exit_code report = if Audit.Driver.clean report then 0 else 2)

(* Partitioned acceptance implies global EDF-NF schedulability in
   simulation: a partitioned schedule is a legal (non-work-conserving)
   witness, and EDF-NF with migration does at least as well in practice on
   implicit-deadline sets.  We keep this as an observational property. *)
let prop_partitioned_sound =
  Core_helpers.qtest ~count:300 "partitioned accept => partitions individually feasible"
    light_taskset_gen (fun ts ->
      let plan = Core.Partitioned.first_fit_decreasing ~fpga_area ts in
      (not (Core.Partitioned.schedulable plan))
      || (Core.Partitioned.used_width plan <= fpga_area
         && List.for_all
              (fun (p : Core.Partitioned.partition) ->
                List.for_all (fun (t : Model.Task.t) -> t.area <= p.width) p.tasks)
              plan.Core.Partitioned.partitions))

let () =
  Alcotest.run "properties"
    [
      ( "soundness",
        [
          prop_dp_sound_fkf;
          prop_dp_sound_nf;
          prop_gn1_sound_nf;
          prop_gn2_sound_fkf;
          prop_gn2_sound_nf;
          prop_composite_sound;
          prop_dp_sound_sporadic;
          prop_gn1_sound_sporadic;
          prop_gn2_sound_sporadic;
        ] );
      ("dominance", [ prop_nf_dominates_fkf ]);
      ("work conserving", [ prop_fkf_alpha; prop_nf_alpha ]);
      ( "traces",
        [ prop_traces_valid; prop_checker_agrees_with_flag; prop_sim_deterministic ] );
      ( "test relationships",
        [ prop_gn1_forms_ordered; prop_dp_forms_ordered; prop_width1_gfb; prop_partitioned_sound ] );
      ( "audit",
        [
          prop_auditor_light;
          prop_auditor_heavy;
          prop_lint_matches_feasibility;
          prop_driver_clean_implies_accept_safe;
        ] );
    ]
