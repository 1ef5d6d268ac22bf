module Time = Model.Time
module Taskset = Model.Taskset
module Engine = Sim.Engine

type scheduler = Edf_nf | Edf_fkf

let scheduler_name = function Edf_nf -> "EDF-NF" | Edf_fkf -> "EDF-FkF"
let policy_of = function Edf_nf -> Sim.Policy.edf_nf | Edf_fkf -> Sim.Policy.edf_fkf

type analyzer = { base : Core.Analyzer.t; sound_for : scheduler list }

let analyzer_name a = a.base.Core.Analyzer.name
let analyzer_decide a = a.base.Core.Analyzer.decide

(* the registry's analyzers tagged with their soundness claims: DP
   proves EDF-FkF schedulability and, by Danne's dominance theorem,
   EDF-NF; GN1 proves EDF-NF (Theorem 2); GN2 proves EDF-FkF and,
   explicitly by Theorem 3, EDF-NF. *)
let dp = { base = Core.Analyzer.dp; sound_for = [ Edf_fkf; Edf_nf ] }
let gn1 = { base = Core.Analyzer.gn1; sound_for = [ Edf_nf ] }
let gn2 = { base = Core.Analyzer.gn2; sound_for = [ Edf_fkf; Edf_nf ] }
let paper_analyzers = [ dp; gn1; gn2 ]

let always_accept ~name ~sound_for =
  let decide ~fpga_area:_ ts =
    let checks =
      List.mapi
        (fun i _ ->
          {
            Core.Verdict.task_index = i;
            satisfied = true;
            lhs = Rat.zero;
            rhs = Rat.zero;
            note = "unconditional accept (unsound stub)";
          })
        (Taskset.to_list ts)
    in
    Core.Verdict.make ~test_name:name ~checks
  in
  {
    base = Core.Analyzer.make ~name ~cite:"deliberately unsound stub" ~version:"0" decide;
    sound_for;
  }

type finding = {
  severity : Diagnostic.severity;
  rule : string;
  analyzer : string option;
  scheduler : scheduler option;
  detail : string;
  counterexample : Model.Taskset.t option;
}

let fixture f = Option.map Taskset.to_csv f.counterexample

let to_diagnostic f =
  let context =
    (match f.analyzer with Some a -> [ a ] | None -> [])
    @ (match f.scheduler with Some s -> [ scheduler_name s ] | None -> [])
  in
  let prefix = match context with [] -> "" | l -> String.concat "/" l ^ ": " in
  let message =
    match fixture f with
    | None -> prefix ^ f.detail
    | Some csv -> prefix ^ f.detail ^ "; minimal counterexample:\n" ^ csv
  in
  { Diagnostic.severity = f.severity; rule = f.rule; task_index = None; message }

(* unit counts and shrink steps depend only on (config, taskset), never
   on the worker count, so they are det metrics; the per-unit timer is
   the audit's cost profile *)
let m_units = Obs.Counter.make "audit.consistency.units"
let m_findings = Obs.Counter.make "audit.consistency.findings"
let m_simulations = Obs.Counter.make "audit.consistency.simulations"
let m_shrink_steps = Obs.Counter.make "audit.consistency.shrink_steps"
let unit_timer = Obs.Timer.make "audit.consistency.unit"

type config = {
  fpga_area : int;
  horizon_cap : Model.Time.t;
  sporadic_seed : int;
  shrink : bool;
}

let default_config ~fpga_area =
  { fpga_area; horizon_cap = Time.of_units 10_000; sporadic_seed = 97; shrink = true }

(* --- simulation helpers --- *)

type release = Synchronous | Sporadic of int

let release_name = function
  | Synchronous -> "synchronous"
  | Sporadic seed -> Printf.sprintf "sporadic (seed %d)" seed

let pattern_of = function
  | Synchronous -> Exact.Oracle.Synchronous
  | Sporadic seed -> Exact.Oracle.Sporadic { seed; max_delay = Time.of_units 3 }

(* every reference schedule the audit consults comes from the exact
   oracle — no ad-hoc Engine configuration here *)
let simulate config ~record scheduler release ts =
  Obs.Counter.incr m_simulations;
  Exact.Oracle.simulate ~horizon_cap:config.horizon_cap ~record ~fpga_area:config.fpga_area
    ~policy:(policy_of scheduler) (pattern_of release) ts

let misses config scheduler release ts =
  match (simulate config ~record:false scheduler release ts : Engine.result * bool) with
  | { Engine.outcome = Engine.Miss m; _ }, _ -> Some m
  | { Engine.outcome = Engine.No_miss; _ }, _ -> None

(* --- counterexample shrinking --- *)

let shrink_counterexample ~exhibits ts =
  let drop_task ts i =
    Taskset.of_list (List.filteri (fun j _ -> j <> i) (Taskset.to_list ts))
  in
  let halve_exec ts i =
    let tasks = Taskset.to_list ts in
    Taskset.of_list
      (List.mapi
         (fun j (t : Model.Task.t) ->
           if j <> i then t
           else { t with Model.Task.exec = Time.of_ticks (max 1 (Time.ticks t.exec / 2)) })
         tasks)
  in
  (* greedily apply the first candidate that still exhibits the failure,
     restarting until no candidate applies; candidate lists are finite
     and each step strictly shrinks (fewer tasks or fewer exec ticks),
     so this terminates *)
  let step ts =
    let n = Taskset.size ts in
    let candidates =
      (if n > 1 then List.init n (fun i () -> drop_task ts i) else [])
      @ List.init n (fun i () ->
            if Time.ticks (Taskset.nth ts i).Model.Task.exec > 1 then halve_exec ts i else ts)
    in
    List.find_map
      (fun make ->
        let candidate = make () in
        if (not (Taskset.equal candidate ts)) && exhibits candidate then Some candidate else None)
      candidates
  in
  let rec fix ts =
    match step ts with
    | None -> ts
    | Some smaller ->
      Obs.Counter.incr m_shrink_steps;
      fix smaller
  in
  fix ts

(* --- the audit --- *)

let finding ?(severity = Diagnostic.Error) ?analyzer ?scheduler ?counterexample ~rule detail =
  { severity; rule; analyzer; scheduler; detail; counterexample }

let severity_rank f = match f.severity with Diagnostic.Error -> 0 | Warning -> 1 | Info -> 2

let trace_findings config scheduler ts =
  let result, _ = simulate config ~record:true scheduler Synchronous ts in
  let physical = Trace.Checker.check ~fpga_area:config.fpga_area result in
  let lemma =
    match scheduler with
    | Edf_nf -> Trace.Checker.check_nf_work_conserving ~fpga_area:config.fpga_area result
    | Edf_fkf ->
      Trace.Checker.check_fkf_work_conserving ~fpga_area:config.fpga_area ~amax:(Taskset.amax ts)
        result
  in
  let summarize rule what = function
    | [] -> []
    | v :: _ as vs ->
      [
        finding ~scheduler ~rule
          (Format.asprintf "%s on the recorded trace (%d total), first: %a" what (List.length vs)
             Trace.Checker.pp_violation v);
      ]
  in
  summarize "trace-invariant-violation" "physical invariant violated" physical
  @ summarize "work-conserving-violation"
      (match scheduler with
       | Edf_nf -> "Lemma 2 occupancy floor violated"
       | Edf_fkf -> "Lemma 1 occupancy floor violated")
      lemma

let unsound_check config analyzer scheduler release ts =
  let decide = analyzer_decide analyzer in
  if not (Core.Verdict.accepted (decide ~fpga_area:config.fpga_area ts)) then []
  else
    match misses config scheduler release ts with
    | None -> []
    | Some m ->
      let exhibits candidate =
        Taskset.fits candidate ~fpga_area:config.fpga_area
        && Core.Verdict.accepted (decide ~fpga_area:config.fpga_area candidate)
        && Option.is_some (misses config scheduler release candidate)
      in
      let counterexample = if config.shrink then shrink_counterexample ~exhibits ts else ts in
      [
        finding ~analyzer:(analyzer_name analyzer) ~scheduler ~counterexample ~rule:"unsound-accept"
          (Format.asprintf "ACCEPT but task %d misses its deadline at t=%a under %s release"
             (m.Engine.task_index + 1) Time.pp m.Engine.at (release_name release));
      ]

(* the exact oracle's verdict on the set, cross-checked two ways: a
   conclusive ACCEPT against every audited analyzer's REJECT (the
   sufficiency gap, informational) and against an approx refutation
   (which claims infeasibility, so a contradiction is a hard error) *)
let oracle_check config analyzers ts =
  let conclusion =
    Exact.Oracle.decide ~horizon_cap:config.horizon_cap ~fpga_area:config.fpga_area
      ~policy:Sim.Policy.edf_nf ts
  in
  let gap =
    match conclusion with
    | Exact.Oracle.Schedulable (Exact.Oracle.All_offsets { combinations; grid }) -> (
      let rejecting =
        List.filter_map
          (fun a ->
            if Core.Verdict.accepted (analyzer_decide a ~fpga_area:config.fpga_area ts) then None
            else Some (analyzer_name a))
          analyzers
      in
      match rejecting with
      | [] -> []
      | names ->
        [
          finding ~severity:Diagnostic.Info ~rule:"sufficiency-gap"
            (Format.asprintf
               "exact oracle certifies schedulability (no miss over %d offset assignments on the \
                %a grid) but %s reject: a sufficiency gap, not unsoundness"
               combinations Time.pp grid (String.concat ", " names));
        ])
    | _ -> []
  in
  let approx_check =
    match Exact.Approx.analyze ~fpga_area:config.fpga_area ts with
    | Exact.Approx.Accepted _ -> []
    | refutation ->
      (* an approx REJECT claims infeasibility under any scheduler, so
         it contradicts any conclusive oracle ACCEPT: a full offset
         certificate always, a synchronous-only certificate when the
         refutation point lies inside the untruncated horizon *)
      let conclusive =
        match conclusion with
        | Exact.Oracle.Schedulable (Exact.Oracle.All_offsets _) -> true
        | Exact.Oracle.Schedulable (Exact.Oracle.Synchronous_only _) -> (
          match refutation with
          | Exact.Approx.Refuted_at { at; _ } ->
            let horizon, truncated =
              Exact.Interval.sync_horizon ~cap:config.horizon_cap ts
            in
            (not truncated) && Time.(at <= horizon)
          | _ -> false)
        | Exact.Oracle.Unschedulable _ | Exact.Oracle.Inconclusive _ -> false
      in
      if not conclusive then []
      else
        let what =
          match refutation with
          | Exact.Approx.Refuted_at { at; demand; supply } ->
            Format.asprintf "approx refutes feasibility (h(%a) = %d > %d column-ticks)" Time.pp at
              demand supply
          | Exact.Approx.Refuted_overload { us } ->
            Format.asprintf "approx refutes feasibility (US = %s exceeds the device area)"
              (Rat.to_string us)
          | Exact.Approx.Accepted _ -> assert false
        in
        [
          finding ~analyzer:"approx" ~rule:"approx-unsound"
            (what ^ " but the exact oracle certifies schedulability");
        ]
  in
  gap @ approx_check

(* one independent, side-effect-free unit of audit work; a unit's
   findings depend only on (config, ts, unit), so units can run on any
   worker in any order and be reassembled in unit order *)
type work =
  | Unsound_check of analyzer * scheduler * release
  | Lemma_check of scheduler
  | Oracle_check

let audit ?(analyzers = paper_analyzers) ?(jobs = 1) config ts =
  if not (Taskset.fits ts ~fpga_area:config.fpga_area) then
    [
      finding ~severity:Diagnostic.Info ~rule:"simulation-skipped"
        "a task is wider than the device; every analyzer rejects vacuously and nothing can be \
         simulated";
    ]
  else begin
    let _, truncated = Exact.Interval.sync_horizon ~cap:config.horizon_cap ts in
    let truncation =
      if truncated then
        [
          finding ~severity:Diagnostic.Info ~rule:"simulation-truncated"
            (Format.asprintf
               "hyper-period exceeds the cap; simulated [0, %a] only, so a clean audit is not a \
                complete synchronous-case certificate"
               Time.pp config.horizon_cap);
        ]
      else []
    in
    let releases = [ Synchronous; Sporadic config.sporadic_seed ] in
    let works =
      List.concat_map
        (fun analyzer ->
          List.concat_map
            (fun scheduler ->
              List.map (fun release -> Unsound_check (analyzer, scheduler, release)) releases)
            analyzer.sound_for)
        analyzers
      @ [ Lemma_check Edf_nf; Lemma_check Edf_fkf; Oracle_check ]
    in
    let eval work =
      Obs.Counter.incr m_units;
      Obs.Timer.time unit_timer (fun () ->
          match work with
          | Unsound_check (analyzer, scheduler, release) ->
            unsound_check config analyzer scheduler release ts
          | Lemma_check scheduler -> trace_findings config scheduler ts
          | Oracle_check -> oracle_check config analyzers ts)
    in
    let findings =
      (if jobs <= 1 then List.concat_map eval works
       else
         Parallel.parallel_map ~jobs eval (Array.of_list works)
         |> Array.to_list |> List.concat)
      @ truncation
    in
    Obs.Counter.add m_findings (List.length findings);
    List.stable_sort (fun a b -> Int.compare (severity_rank a) (severity_rank b)) findings
  end
