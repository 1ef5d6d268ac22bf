(* Tests for the event-driven EDF-NF / EDF-FkF simulator.  The crafted
   scenarios below are small enough to verify by hand; the schedules they
   must produce are worked out in the comments. *)

module Time = Model.Time
module Engine = Sim.Engine
module Policy = Sim.Policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ts = Core_helpers.taskset

let config ?(policy = Policy.edf_nf) ?(horizon = 40) ?(record = false) ?placement fpga_area =
  let base = Engine.default_config ~fpga_area ~policy in
  {
    base with
    Engine.horizon = Time.of_units horizon;
    record_trace = record;
    placement = Option.value placement ~default:Engine.Migrating;
  }

let no_miss r = r.Engine.outcome = Engine.No_miss

(* One task alone on a big-enough device always meets its deadlines and
   executes exactly C per period. *)
let single_task () =
  let t = ts [ ("a", "2", "5", "5", 4) ] in
  let r = Engine.run (config 10 ~horizon:50) t in
  check_bool "schedulable" true (no_miss r);
  check_int "jobs released" 10 r.Engine.stats.jobs_released;
  check_int "jobs completed" 10 r.Engine.stats.jobs_completed;
  (* busy integral: 10 jobs * 2 units * 4 columns *)
  check_int "busy column ticks" (10 * 2 * 1000 * 4) r.Engine.stats.busy_column_ticks;
  check_int "never contended" 0 r.Engine.stats.contended_ticks

(* Two tasks that fit side by side never wait. *)
let parallel_tasks () =
  let t = ts [ ("a", "3", "5", "5", 4); ("b", "4", "5", "5", 6) ] in
  let r = Engine.run (config 10 ~horizon:50) t in
  check_bool "schedulable" true (no_miss r);
  check_int "no contention" 0 r.Engine.stats.contended_ticks;
  check_int "no preemptions" 0 r.Engine.stats.preemptions

(* Overload: C > D must miss at the first deadline. *)
let immediate_overload () =
  let t = ts [ ("a", "6", "5", "5", 4) ] in
  match (Engine.run (config 10) t).Engine.outcome with
  | Engine.Miss m ->
    check_int "task 0" 0 m.Engine.task_index;
    Core_helpers.check_time "at first deadline" (Time.of_units 5) m.Engine.at
  | Engine.No_miss -> Alcotest.fail "expected a deadline miss"

(* Early miss: the run stops at t=5 of a 40-unit horizon.  The busy
   integral covers only the 5 simulated units (the task runs the whole
   time at width 4), so the average must divide by the time actually
   simulated — 4.0 columns — not by the full horizon (which gave 0.5). *)
let average_busy_area_early_miss () =
  let t = ts [ ("a", "6", "5", "5", 4) ] in
  let r = Engine.run (config 10) t in
  check_bool "misses" false (no_miss r);
  check_int "elapsed stops at the miss" 5_000 r.Engine.stats.elapsed_ticks;
  check_int "busy integral over [0,5)" (5 * 1000 * 4) r.Engine.stats.busy_column_ticks;
  Alcotest.(check (float 1e-9)) "average over simulated time" 4.0 (Engine.average_busy_area r)

(* A run that never contends reports no occupancy floor at all, rather
   than a max_int sentinel. *)
let min_busy_option () =
  let t = ts [ ("a", "2", "5", "5", 4) ] in
  let r = Engine.run (config 10 ~horizon:50) t in
  check_bool "uncontended run has no floor" true
    (r.Engine.stats.min_busy_when_contended = None);
  (* and a contended run reports the real minimum: three tasks of
     widths 6/6/4 on 10 columns always leave someone waiting while 10
     columns are busy *)
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6); ("t3", "3", "4", "4", 4) ] in
  let r = Engine.run (config 10 ~policy:Policy.edf_nf ~horizon:8) t in
  check_bool "contended" true (r.Engine.stats.contended_ticks > 0);
  match r.Engine.stats.min_busy_when_contended with
  | Some floor -> check_int "floor is the full device" 10 floor
  | None -> Alcotest.fail "expected an occupancy floor"

(* Completing exactly at the deadline is on time: a saturated C = D = T
   task never misses, under synchronous and offset releases alike. *)
let completion_at_deadline () =
  let t = ts [ ("a", "5", "5", "5", 4) ] in
  let r = Engine.run (config 10 ~horizon:20) t in
  check_bool "saturated task schedulable" true (no_miss r);
  check_int "all jobs complete" 4 r.Engine.stats.jobs_completed;
  let offset =
    { (config 10 ~horizon:21) with Engine.release = Engine.Offsets [ Time.of_units 1 ] }
  in
  let r = Engine.run offset t in
  check_bool "offset release schedulable" true (no_miss r);
  check_int "offset jobs complete" 4 r.Engine.stats.jobs_completed

(* A deadline falling exactly at the horizon is still checked, and a job
   completing there is on time: no spurious miss from the ordering of
   Deadline_check against completion at the final instant. *)
let deadline_at_horizon () =
  let t = ts [ ("a", "10", "10", "10", 4) ] in
  let r = Engine.run (config 10 ~horizon:10) t in
  check_bool "completion at the horizon deadline" true (no_miss r);
  check_int "job completed" 1 r.Engine.stats.jobs_completed;
  check_int "full horizon simulated" 10_000 r.Engine.stats.elapsed_ticks;
  let t = ts [ ("a", "5", "5", "10", 4) ] in
  let offset =
    { (config 10 ~horizon:10) with Engine.release = Engine.Offsets [ Time.of_units 5 ] }
  in
  let r = Engine.run offset t in
  check_bool "offset deadline at horizon met" true (no_miss r);
  check_int "offset job completed" 1 r.Engine.stats.jobs_completed;
  (* and an actual miss exactly at the horizon is still reported *)
  let t = ts [ ("a", "10", "10", "10", 4); ("b", "10", "10", "10", 8) ] in
  match (Engine.run (config 10 ~horizon:10) t).Engine.outcome with
  | Engine.Miss m -> Core_helpers.check_time "miss at the horizon" (Time.of_units 10) m.Engine.at
  | Engine.No_miss -> Alcotest.fail "expected a miss at the horizon"

(* The Definition-1 vs Definition-2 separation: tau1 and tau2 are both
   6 columns wide (they cannot run together on 10), tau3 is 4 wide with
   C=3, D=4.  Under EDF-NF tau3 runs at time 0 next to tau1 and finishes
   at 3 < 4.  Under EDF-FkF tau2 (earlier in queue order) blocks tau3, so
   tau3 only runs in [2,4) and misses at t=4. *)
let nf_beats_fkf () =
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6); ("t3", "3", "4", "4", 4) ] in
  let nf = Engine.run (config 10 ~policy:Policy.edf_nf ~horizon:8) t in
  check_bool "NF schedulable" true (no_miss nf);
  match (Engine.run (config 10 ~policy:Policy.edf_fkf ~horizon:8)) t |> fun r -> r.Engine.outcome with
  | Engine.Miss m ->
    check_int "tau3 misses" 2 m.Engine.task_index;
    Core_helpers.check_time "at t=4" (Time.of_units 4) m.Engine.at
  | Engine.No_miss -> Alcotest.fail "expected FkF to miss"

(* EDF preemption: tau2 = (C=2, T=3, A=6) and tau1 = (C=3, T=D=10, A=6).
   They cannot share the device.  tau1 runs in the gaps [2,3), [5,6),
   [8,9): exactly 3 units by t=10, with tau2's jobs 2 and 3 preempting
   it. *)
let preemption_counted () =
  let t = ts [ ("t1", "3", "10", "10", 6); ("t2", "2", "3", "3", 6) ] in
  let r = Engine.run (config 10 ~policy:Policy.edf_fkf ~horizon:30 ~record:true) t in
  check_bool "schedulable" true (no_miss r);
  check_bool "preemptions observed" true (r.Engine.stats.preemptions >= 2)

(* Work-conserving flags on the paper's model (migrating placement). *)
let alpha_flags () =
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6); ("t3", "3", "4", "4", 4) ] in
  let nf = Engine.run (config 10 ~policy:Policy.edf_nf ~horizon:8) t in
  check_bool "NF alpha respected" true nf.Engine.stats.nf_alpha_respected;
  let fkf = Engine.run (config 10 ~policy:Policy.edf_fkf ~horizon:8) t in
  check_bool "FkF alpha respected" true fkf.Engine.stats.fkf_alpha_respected

(* Release offsets shift the whole schedule. *)
let offsets_respected () =
  let t = ts [ ("a", "2", "5", "5", 4) ] in
  let cfg =
    { (config 10 ~horizon:12 ~record:true) with Engine.release = Engine.Offsets [ Time.of_units 3 ] }
  in
  let r = Engine.run cfg t in
  check_bool "schedulable" true (no_miss r);
  check_int "two jobs in [0,12]" 2 r.Engine.stats.jobs_released;
  (* nothing can run before the offset *)
  List.iter
    (fun (seg : Engine.segment) ->
      if Time.(seg.Engine.t1 <= Time.of_units 3) then
        check_int "idle before offset" 0 (List.length seg.Engine.running))
    r.Engine.segments

(* Sporadic arrivals: deterministic per seed, releases spaced at least
   one period apart, fewer jobs than the strictly periodic run. *)
let sporadic_releases () =
  let t = ts [ ("a", "1", "5", "5", 4) ] in
  let sporadic seed =
    {
      (config 10 ~horizon:100 ~record:true) with
      Engine.release = Engine.Sporadic { seed; max_delay = Time.of_units 3 };
    }
  in
  let r1 = Engine.run (sporadic 5) t in
  let r2 = Engine.run (sporadic 5) t in
  check_int "deterministic per seed" r1.Engine.stats.jobs_released r2.Engine.stats.jobs_released;
  let periodic = Engine.run (config 10 ~horizon:100) t in
  check_bool "delays reduce the job count" true
    (r1.Engine.stats.jobs_released < periodic.Engine.stats.jobs_released);
  (* inter-arrival >= period: successive releases of the task differ by
     at least 5 units *)
  let releases =
    List.concat_map
      (fun (seg : Engine.segment) ->
        List.filter_map
          (fun p -> if Time.equal p.Engine.job.Sim.Job.release seg.Engine.t0 then Some seg.Engine.t0 else None)
          seg.Engine.running)
      r1.Engine.segments
    |> List.sort_uniq Time.compare
  in
  let rec spaced = function
    | a :: (b :: _ as rest) ->
      check_bool "inter-arrival >= T" true Time.(Time.sub b a >= Time.of_units 5);
      spaced rest
    | _ -> ()
  in
  spaced releases;
  check_bool "sporadic run schedulable" true (no_miss r1)

(* A task wider than the device is rejected up front. *)
let too_wide_rejected () =
  let t = ts [ ("a", "1", "5", "5", 11) ] in
  Alcotest.check_raises "too wide" (Invalid_argument "Engine.run: task wider than the FPGA")
    (fun () -> ignore (Engine.run (config 10) t))

let offsets_arity_checked () =
  let t = ts [ ("a", "1", "5", "5", 1); ("b", "1", "5", "5", 1) ] in
  let cfg = { (config 10) with Engine.release = Engine.Offsets [ Time.zero ] } in
  Alcotest.check_raises "arity" (Invalid_argument "Engine.run: one offset per task required")
    (fun () -> ignore (Engine.run cfg t))

(* Contiguous placement: same three-task scenario; first-fit places tau1
   at [0,6) and tau3 at [6,10) under NF, so the outcome matches the
   migrating run here. *)
let contiguous_simple () =
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6); ("t3", "3", "4", "4", 4) ] in
  let r =
    Engine.run
      (config 10 ~policy:Policy.edf_nf ~horizon:8 ~record:true
         ~placement:(Engine.Contiguous Fpga.Device.First_fit))
      t
  in
  check_bool "schedulable" true (no_miss r);
  check_bool "placements made" true (r.Engine.stats.placements_made > 0);
  (* every running job carries a region in contiguous mode *)
  List.iter
    (fun (seg : Engine.segment) ->
      List.iter
        (fun p -> check_bool "has region" true (p.Engine.region <> None))
        seg.Engine.running)
    r.Engine.segments

(* Fragmentation can cost schedulability: under migrating placement the
   taskset below is schedulable, under contiguous first-fit it misses.
   At t=0 first-fit places, in deadline order, tL (w=4, d=4) at [0,4),
   tM (w=3, d=5) at [4,7), tR (w=3, d=20) at [7,10).  tL and tR finish at
   t=1, leaving free blocks [0,4) and [7,10) around tM, which keeps its
   region until t=4.2.  t4 (w=6, released at t=1, absolute deadline 5.5)
   has a later deadline than tM, so it cannot displace it; it needs 6
   contiguous columns, finds none, and can only run from t=4.2 — missing
   at 5.5.  With migration the 7 free columns at t=1 are usable and t4
   finishes by 2.5. *)
let fragmentation_costs () =
  let t =
    ts
      [
        ("tL", "1", "4", "4", 4);
        ("tM", "4.2", "5", "5", 3);
        ("tR", "1", "20", "20", 3);
        ("t4", "1.5", "4.5", "20", 6);
      ]
  in
  let offsets = Engine.Offsets [ Time.zero; Time.zero; Time.zero; Time.of_units 1 ] in
  let base = config 10 ~policy:Policy.edf_nf ~horizon:20 in
  let migrating = { base with Engine.release = offsets } in
  check_bool "migrating schedulable" true (no_miss (Engine.run migrating t));
  let contiguous =
    { base with Engine.release = offsets; placement = Engine.Contiguous Fpga.Device.First_fit }
  in
  match (Engine.run contiguous t).Engine.outcome with
  | Engine.Miss m -> check_int "tau4 misses" 3 m.Engine.task_index
  | Engine.No_miss -> Alcotest.fail "expected fragmentation miss"

(* EDF-US puts a heavy task first even with a later deadline. *)
let edf_us_priority () =
  (* tau1: utilization 0.9 (heavy), long deadline; tau2: light, short
     deadline; they cannot run together.  Plain EDF runs tau2 first;
     EDF-US[0.5] runs tau1 first. *)
  let t = ts [ ("heavy", "9", "10", "10", 6); ("light", "1", "2", "2", 6) ] in
  let us_policy =
    Policy.edf_us ~threshold:(Rat.of_ints 1 2) ~measure:`Time ~rule:Policy.Fkf
  in
  let r = Engine.run (config 10 ~policy:us_policy ~horizon:2 ~record:true) t in
  (match r.Engine.segments with
   | seg :: _ ->
     (match seg.Engine.running with
      | [ p ] -> Alcotest.(check string) "heavy first" "heavy" p.Engine.job.Sim.Job.task.Model.Task.name
      | _ -> Alcotest.fail "expected exactly one running job")
   | [] -> Alcotest.fail "expected a trace");
  (* and the light task misses because of it *)
  match r.Engine.outcome with
  | Engine.Miss m -> check_int "light task misses" 1 m.Engine.task_index
  | Engine.No_miss -> Alcotest.fail "expected light task to miss under EDF-US"

(* Multiprocessor reduction: width-1 tasks on A(H)=m behave like global
   EDF on m processors; three unit tasks on two processors with total
   utilization 1.5 are schedulable, on one processor they are not. *)
let multiprocessor_special_case () =
  let t = ts [ ("a", "1", "2", "2", 1); ("b", "1", "2", "2", 1); ("c", "1", "2", "2", 1) ] in
  check_bool "m=2 ok" true (no_miss (Engine.run (config 2 ~horizon:20) t));
  check_bool "m=1 misses" false (no_miss (Engine.run (config 1 ~horizon:20) t))

(* The recorded trace is validated by the checker and both
   work-conserving lemmas hold on the paper's model. *)
let trace_checked () =
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6); ("t3", "3", "4", "4", 4) ] in
  let r = Engine.run (config 10 ~policy:Policy.edf_nf ~horizon:8 ~record:true) t in
  Alcotest.(check (list (Alcotest.testable Trace.Checker.pp_violation (fun _ _ -> false))))
    "no violations" [] (Trace.Checker.check ~fpga_area:10 r);
  Alcotest.(check int) "lemma 2 holds" 0
    (List.length (Trace.Checker.check_nf_work_conserving ~fpga_area:10 r))

(* --- differential check against the reference engine --- *)

(* Random configurations over every mode the engine has: N from 1 to 8
   on areas 7, 10 and 100; D < T, D = T and D > T; EDF-NF, EDF-FkF and
   EDF-US under both measures; synchronous, offset and sporadic
   releases (max_delay 0 included); migrating and all three contiguous
   strategies; trace on and off.  Parameters sit on a half-unit grid so
   releases, deadlines and completions often coincide, and utilizations
   reach overload, so misses and preemptions are common. *)
let half_units k = Time.of_ticks (k * 500)

let diff_task_gen ~fpga_area ~load i =
  QCheck2.Gen.(
    let* period = int_range 2 24 in
    let* exec = int_range 1 (max 1 (period * load / 8)) in
    let* deadline =
      oneof
        [
          int_range (min exec (period - 1)) (period - 1) (* D < T *);
          return period;
          int_range (period + 1) (2 * period) (* D > T *);
        ]
    in
    let* area = int_range 1 fpga_area in
    return
      (Model.Task.make ~name:(Printf.sprintf "t%d" i) ~exec:(half_units exec)
         ~deadline:(half_units deadline) ~period:(half_units period) ~area ()))

let diff_case_gen =
  QCheck2.Gen.(
    let* fpga_area = oneofl [ 7; 10; 100 ] in
    let* n = int_range 1 8 in
    (* caps C/T at load/8, spreading runs from idle to overloaded *)
    let* load = int_range 1 8 in
    let* tasks = flatten_l (List.init n (diff_task_gen ~fpga_area ~load)) in
    let* policy =
      oneof
        [
          return Policy.edf_nf;
          return Policy.edf_fkf;
          (let* k = int_range 1 9 in
           let* measure = oneofl [ `Time; `System ] in
           let* rule = oneofl [ Policy.Nf; Policy.Fkf ] in
           return (Policy.edf_us ~threshold:(Rat.of_ints k 10) ~measure ~rule));
        ]
    in
    let* release =
      oneof
        [
          return Engine.Synchronous;
          (let* offsets = flatten_l (List.init n (fun _ -> int_range 0 24)) in
           return (Engine.Offsets (List.map half_units offsets)));
          (let* seed = int_range 0 10_000 in
           let* delay = int_range 0 6 in
           return (Engine.Sporadic { seed; max_delay = half_units delay }));
        ]
    in
    let* placement =
      oneofl
        [
          Engine.Migrating;
          Engine.Contiguous Fpga.Device.First_fit;
          Engine.Contiguous Fpga.Device.Best_fit;
          Engine.Contiguous Fpga.Device.Worst_fit;
        ]
    in
    let* record_trace = bool in
    let* horizon = int_range 10 300 in
    return
      ( { Engine.fpga_area; policy; horizon = Time.of_units horizon; release; placement; record_trace },
        Model.Taskset.of_list tasks ))

let print_diff_case ((cfg : Engine.config), ts) =
  Format.asprintf "%a, area %d, horizon %a, %s, %s, trace %b@.%s" Policy.pp cfg.Engine.policy
    cfg.Engine.fpga_area Time.pp cfg.Engine.horizon
    (match cfg.Engine.release with
     | Engine.Synchronous -> "synchronous"
     | Engine.Offsets l -> "offsets " ^ String.concat " " (List.map Time.to_string l)
     | Engine.Sporadic { seed; max_delay } ->
       Printf.sprintf "sporadic seed %d max_delay %s" seed (Time.to_string max_delay))
    (match cfg.Engine.placement with
     | Engine.Migrating -> "migrating"
     | Engine.Contiguous Fpga.Device.First_fit -> "first-fit"
     | Engine.Contiguous Fpga.Device.Best_fit -> "best-fit"
     | Engine.Contiguous Fpga.Device.Worst_fit -> "worst-fit")
    cfg.Engine.record_trace (Model.Taskset.to_csv ts)

let same_outcome (a : Engine.outcome) (b : Engine.outcome) =
  match (a, b) with
  | Engine.No_miss, Engine.No_miss -> true
  | Engine.Miss a, Engine.Miss b ->
    a.Engine.job_id = b.Engine.job_id
    && a.Engine.task_index = b.Engine.task_index
    && Time.equal a.Engine.at b.Engine.at
  | Engine.No_miss, Engine.Miss _ | Engine.Miss _, Engine.No_miss -> false

(* what a segment shows of each job: id, remaining work (read after the
   run, like every trace consumer) and, for running jobs, the region *)
let segment_view (seg : Engine.segment) =
  ( Time.ticks seg.Engine.t0,
    Time.ticks seg.Engine.t1,
    List.map
      (fun (p : Engine.placed) ->
        (p.Engine.job.Sim.Job.id, Time.ticks p.Engine.job.Sim.Job.remaining, p.Engine.region))
      seg.Engine.running,
    List.map (fun (j : Sim.Job.t) -> j.Sim.Job.id) seg.Engine.waiting )

let matches_reference ((cfg : Engine.config), ts) =
  let expected = Sim_reference.run cfg ts in
  let actual = Engine.run cfg ts in
  if not (same_outcome expected.Engine.outcome actual.Engine.outcome) then
    QCheck2.Test.fail_report "outcome differs";
  if expected.Engine.stats <> actual.Engine.stats then QCheck2.Test.fail_report "stats differ";
  if List.map segment_view expected.Engine.segments <> List.map segment_view actual.Engine.segments
  then QCheck2.Test.fail_report "segments differ";
  if cfg.Engine.record_trace then begin
    match Trace.Checker.check ~fpga_area:cfg.Engine.fpga_area actual with
    | [] -> ()
    | v :: _ -> QCheck2.Test.fail_reportf "trace violation: %a" Trace.Checker.pp_violation v
  end;
  true

let differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"engine == reference engine" ~print:print_diff_case
       diff_case_gen matches_reference)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "single task" `Quick single_task;
          Alcotest.test_case "parallel tasks" `Quick parallel_tasks;
          Alcotest.test_case "immediate overload" `Quick immediate_overload;
          Alcotest.test_case "average busy area after early miss" `Quick
            average_busy_area_early_miss;
          Alcotest.test_case "min busy option" `Quick min_busy_option;
          Alcotest.test_case "completion at deadline" `Quick completion_at_deadline;
          Alcotest.test_case "deadline at horizon" `Quick deadline_at_horizon;
          Alcotest.test_case "NF beats FkF" `Quick nf_beats_fkf;
          Alcotest.test_case "preemption counted" `Quick preemption_counted;
          Alcotest.test_case "alpha flags" `Quick alpha_flags;
          Alcotest.test_case "release offsets" `Quick offsets_respected;
          Alcotest.test_case "sporadic releases" `Quick sporadic_releases;
          Alcotest.test_case "too-wide task rejected" `Quick too_wide_rejected;
          Alcotest.test_case "offsets arity" `Quick offsets_arity_checked;
          Alcotest.test_case "multiprocessor special case" `Quick multiprocessor_special_case;
        ] );
      ( "placement",
        [
          Alcotest.test_case "contiguous simple" `Quick contiguous_simple;
          Alcotest.test_case "fragmentation costs schedulability" `Quick fragmentation_costs;
        ] );
      ( "policies", [ Alcotest.test_case "EDF-US priority" `Quick edf_us_priority ] );
      ("trace", [ Alcotest.test_case "checker passes" `Quick trace_checked ]);
      ("reference", [ differential ]);
    ]
