(* Unit tests for the analysis library beyond the paper-table regressions:
   edge cases, the multiprocessor specialisations, verdict plumbing and
   partitioned scheduling. *)

let check_bool = Alcotest.(check bool)
let check_rat = Core_helpers.check_rat
let ts = Core_helpers.taskset
let fpga_area = 10

(* A lone fitting task with C <= D = T is accepted by every test. *)
let single_task_accepted () =
  let t = ts [ ("a", "3", "5", "5", 7) ] in
  check_bool "DP" true (Core.Analyzer.(accepts dp) ~fpga_area t);
  check_bool "GN1" true (Core.Analyzer.(accepts gn1) ~fpga_area t);
  check_bool "GN2" true (Core.Analyzer.(accepts gn2) ~fpga_area t);
  check_bool "partitioned" true (Core.Partitioned.accepts ~fpga_area t)

(* C > T makes even a lone task infeasible. *)
let overloaded_single_rejected () =
  let t = ts [ ("a", "6", "5", "5", 7) ] in
  check_bool "DP" false (Core.Analyzer.(accepts dp) ~fpga_area t);
  check_bool "GN1" false (Core.Analyzer.(accepts gn1) ~fpga_area t);
  check_bool "GN2" false (Core.Analyzer.(accepts gn2) ~fpga_area t);
  check_bool "partitioned" false (Core.Partitioned.accepts ~fpga_area t)

(* A task wider than the device is a rejection, not an exception. *)
let too_wide_rejected () =
  let t = ts [ ("a", "1", "5", "5", 11) ] in
  check_bool "DP" false (Core.Analyzer.(accepts dp) ~fpga_area t);
  check_bool "GN1" false (Core.Analyzer.(accepts gn1) ~fpga_area t);
  check_bool "GN2" false (Core.Analyzer.(accepts gn2) ~fpga_area t);
  let v = Core.Dp.decide ~fpga_area t in
  Alcotest.(check (list int)) "all tasks flagged" [ 0 ] (Core.Verdict.failing_tasks v)

let applicability () =
  check_bool "implicit ok" true (Core.Dp.applicable (ts [ ("a", "1", "5", "5", 1) ]));
  check_bool "constrained not" false (Core.Dp.applicable (ts [ ("a", "1", "3", "5", 1) ]))

(* Table-2 carry-in corner: for k=1, tau2's window count N_2 is 0 and the
   whole C_2 = 8 counts as carry-in, giving beta_2 = 8/9. *)
let gn1_zero_jobs_carry_in () =
  let table2 = ts [ ("tau1", "4.50", "8", "8", 3); ("tau2", "8.00", "9", "9", 5) ] in
  Core_helpers.check_bignum "N_2 = 0" Bignum.zero (Analyzer_reference.Gn1.n_jobs table2 ~k:0 ~i:1);
  check_rat "beta_2 = 8/9" (Rat.of_ints 8 9) (Analyzer_reference.Gn1.beta table2 ~k:0 ~i:1);
  Core_helpers.check_bignum "N_1 = 1 for k=2" Bignum.one (Analyzer_reference.Gn1.n_jobs table2 ~k:1 ~i:0);
  check_rat "beta_1 = 11/16" (Rat.of_ints 11 16) (Analyzer_reference.Gn1.beta table2 ~k:1 ~i:0)

let gn1_index_errors () =
  let t = ts [ ("a", "1", "5", "5", 1); ("b", "1", "5", "5", 1) ] in
  Alcotest.check_raises "k = i" (Invalid_argument "Gn1: interference of a task on itself is undefined")
    (fun () -> ignore (Analyzer_reference.Gn1.beta t ~k:1 ~i:1));
  Alcotest.check_raises "out of range" (Invalid_argument "Gn1: task index out of range") (fun () ->
      ignore (Analyzer_reference.Gn1.beta t ~k:2 ~i:0))

(* GN2 candidates: all within [C_k/T_k, 1], contain every in-range
   utilization. *)
let gn2_candidate_set () =
  let t = ts [ ("a", "1", "4", "4", 2); ("b", "3", "5", "5", 3); ("c", "2", "10", "10", 4) ] in
  (* utilizations: 1/4, 3/5, 1/5; for k = a (1/4): candidates are 1/4 and
     3/5 (1/5 is below C_k/T_k) *)
  let cands = Analyzer_reference.Gn2.lambda_candidates t ~k:0 in
  Alcotest.(check int) "two candidates" 2 (List.length cands);
  check_rat "first" (Rat.of_ints 1 4) (List.nth cands 0);
  check_rat "second" (Rat.of_ints 3 5) (List.nth cands 1)

(* GN2's beta cases, exercised directly: i heavier than lambda with late
   vs early finish. *)
let gn2_beta_cases () =
  let t = ts [ ("k", "1", "10", "10", 2); ("i", "4", "5", "5", 3) ] in
  (* u_i = 4/5, dens_i = 4/5 *)
  let beta_light = Analyzer_reference.Gn2.beta_lambda t ~k:0 ~i:1 ~lambda:(Rat.of_ints 9 10) in
  (* case 1: u_i <= lambda: max(4/5, 4/5*(1 - 5/10) + 4/10) = 4/5 *)
  check_rat "case 1" (Rat.of_ints 4 5) beta_light;
  (* case 2: u_i > lambda = dens_i is impossible here since dens = u;
     case 3: lambda < dens_i: u_i + (C_i - lambda*D_i)/D_k
       with lambda = 1/2: 4/5 + (4 - 5/2)/10 = 4/5 + 3/20 = 19/20 *)
  let beta_heavy = Analyzer_reference.Gn2.beta_lambda t ~k:0 ~i:1 ~lambda:(Rat.of_ints 1 2) in
  check_rat "case 3" (Rat.of_ints 19 20) beta_heavy;
  (* case 2 needs D_i > T_i: dens < u *)
  let t2 = ts [ ("k", "1", "10", "10", 2); ("i", "4", "8", "5", 3) ] in
  (* u_i = 4/5, dens_i = 1/2; lambda = 0.6: u > lambda >= dens -> u_i *)
  let beta_mid = Analyzer_reference.Gn2.beta_lambda t2 ~k:0 ~i:1 ~lambda:(Rat.of_ints 3 5) in
  check_rat "case 2" (Rat.of_ints 4 5) beta_mid

(* GN2's candidate enumeration covers its search range: a dense lambda
   grid over [C_k/T_k, max candidate] never accepts a task the candidate
   points rejected — the optimum within the sound range lies at a
   discontinuity of beta, which is the claim behind Section 5's O(N^3)
   complexity.  (Beyond the last candidate the printed Theorem 3 would
   keep searching, but that region is exactly the degeneracy that would
   wrongly accept the paper's own Table 1; see DESIGN.md section 2.) *)
let prop_gn2_candidates_complete =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 4)
        (let* t_units = oneofl [ 2; 4; 5; 8; 10 ] in
         let period = Model.Time.of_units t_units in
         let* c_ticks = int_range 1 (Model.Time.ticks period) in
         let* area = int_range 1 10 in
         return (Model.Task.make ~exec:(Model.Time.of_ticks c_ticks) ~deadline:period ~period ~area ()))
      >|= Model.Taskset.of_list)
  in
  Core_helpers.qtest ~count:200 "GN2 lambda grid never beats the candidates" gen (fun t ->
      let n = Model.Taskset.size t in
      let all_k_ok_via_grid =
        List.init n Fun.id
        |> List.for_all (fun k ->
               match List.rev (Analyzer_reference.Gn2.lambda_candidates t ~k) with
               | [] -> false
               | hi_cand :: _ ->
                 let qk = Model.Taskset.nth t k in
                 let lo = Model.Task.time_utilization qk in
                 let span = Rat.sub hi_cand lo in
                 let grid =
                   List.init 101 (fun i ->
                       Rat.add lo (Rat.mul span (Rat.of_ints i 100)))
                 in
                 List.exists
                   (fun lambda ->
                     let ev = Analyzer_reference.Gn2.evaluate_lambda ~fpga_area t ~k ~lambda in
                     ev.Analyzer_reference.Gn2.cond1 || ev.Analyzer_reference.Gn2.cond2)
                   grid)
      in
      (* grid acceptance implies candidate acceptance *)
      (not all_k_ok_via_grid) || Core.Analyzer.(accepts gn2) ~fpga_area t)

(* --- multiprocessor specialisations ---

   Global EDF on m identical processors is a width-1 taskset on
   A(H) = m (Section 1): the analyzers run on it unchanged. *)

let mp_tasks l = ts (List.map (fun (n, c, t) -> (n, c, t, t, 1)) l)

let gfb_agrees_with_dp () =
  (* three unit-speed tasks on 2 processors *)
  let t = mp_tasks [ ("a", "1", "2"); ("b", "1", "2"); ("c", "1", "5") ] in
  check_bool "gfb_direct" (Analyzer_reference.Gfb.accepts ~m:2 t)
    (Core.Analyzer.(accepts dp) ~fpga_area:2 t);
  let heavy = mp_tasks [ ("a", "9", "10"); ("b", "9", "10"); ("c", "9", "10") ] in
  check_bool "heavy set agrees too" (Analyzer_reference.Gfb.accepts ~m:3 heavy)
    (Core.Analyzer.(accepts dp) ~fpga_area:3 heavy)

let mp_width_check () =
  let bad = ts [ ("a", "1", "2", "2", 2) ] in
  Alcotest.check_raises "width enforced"
    (Invalid_argument "Gfb.accepts: taskset must have all areas = 1") (fun () ->
      ignore (Analyzer_reference.Gfb.accepts ~m:2 bad))

let prop_gfb_reduction =
  (* random width-1 tasksets: the direct GFB formula and DP at width 1
     must agree exactly *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (pair (int_range 1 40) (int_range 1 4))
      >|= fun l ->
      Model.Taskset.of_list
        (List.map
           (fun (c_deci, t_units) ->
             let period = Model.Time.of_units (t_units * 2) in
             let exec = Model.Time.of_ticks (min (c_deci * 100) (Model.Time.ticks period)) in
             Model.Task.make ~exec ~deadline:period ~period ~area:1 ())
           l))
  in
  Core_helpers.qtest "GFB = DP on width-1 tasksets" gen (fun t ->
      List.for_all
        (fun m -> Analyzer_reference.Gfb.accepts ~m t = Core.Analyzer.(accepts dp) ~fpga_area:m t)
        [ 1; 2; 4; 8 ])

(* GN1 at width 1 on A(H) = m against Bertogna-Cirinei-Lipari's BCL
   (Analyzer_reference.Bcl).  GN1 divides task i's workload in task k's
   window by D_i, as the paper's Table 3 example does (beta_1 = 4.1/5),
   where BCL divides by D_k (DESIGN.md section 2): each check's lhs is
   BCL's workload over D_i, and the verdicts agree whenever every
   deadline is equal.  Half the draws share one deadline. *)
let prop_bcl_reduction =
  let gen =
    let open QCheck2.Gen in
    let task ~d_lo ~d_hi =
      let* d = int_range d_lo d_hi in
      let* t = int_range d 12 in
      let+ c_tenths = int_range 1 (10 * d) in
      Model.Task.make ~exec:(Model.Time.of_ticks (c_tenths * 100)) ~deadline:(Model.Time.of_units d)
        ~period:(Model.Time.of_units t) ~area:1 ()
    in
    let* m = int_range 1 4 in
    let* n = int_range 2 6 in
    let* shared = bool in
    let* d = int_range 1 12 in
    let+ tasks = list_repeat n (if shared then task ~d_lo:d ~d_hi:d else task ~d_lo:1 ~d_hi:12) in
    (m, Model.Taskset.of_list tasks)
  in
  let print (m, t) = Format.asprintf "m=%d %a" m Model.Taskset.pp t in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"GN1 = BCL's workload over D_i" ~print gen (fun (m, t) ->
         let module P = Analyzer_reference.Params in
         let qs = P.of_taskset t in
         let v = Core.Analyzer.gn1.decide ~fpga_area:m t in
         let lhs_is_bcl_over_di (c : Core.Verdict.task_check) =
           let k = c.Core.Verdict.task_index in
           let slack = Rat.sub Rat.one (P.density qs.(k)) in
           let expected = ref Rat.zero in
           Array.iteri
             (fun i q ->
               if i <> k then
                 expected :=
                   Rat.add !expected
                     (Rat.min (Rat.div (Analyzer_reference.Bcl.workload qs ~k ~i) q.P.d) slack))
             qs;
           Rat.equal c.Core.Verdict.lhs !expected
         in
         let shared_deadline = Array.for_all (fun q -> Rat.equal q.P.d qs.(0).P.d) qs in
         List.for_all lhs_is_bcl_over_di v.Core.Verdict.checks
         && ((not shared_deadline)
            || Core.Verdict.accepted v = Analyzer_reference.Bcl.accepts ~m t)))

(* --- monotonicity: taskset extension and device area ---

   Two relations every closed-form analyzer must keep:
   ACCEPT(S + tau) => ACCEPT(S), since a task more can only hurt, and
   ACCEPT at A(H) => ACCEPT at A(H) + 1, since a column more can only
   help.  approx is left out (its test points move with the taskset),
   and so is the exact oracle (open to scheduling anomalies). *)

let closed_form =
  Core.Analyzer.[ dp; dp_original; gn1; gn1_printed; gn2; nec ]

let small_task_gen =
  QCheck2.Gen.(
    let* t_units = oneofl [ 2; 4; 5; 8; 10 ] in
    let period = Model.Time.of_units t_units in
    let* c_ticks = int_range 1 (Model.Time.ticks period) in
    let* area = int_range 1 10 in
    return (Model.Task.make ~exec:(Model.Time.of_ticks c_ticks) ~deadline:period ~period ~area ()))

let small_taskset_gen =
  QCheck2.Gen.(list_size (int_range 1 4) small_task_gen >|= Model.Taskset.of_list)

(* as [small_task_gen], but a third of the tasks have D < T, and three
   in four are at most 5 columns wide, so that every analyzer accepts
   some 4- and 5-task sets on 10 columns *)
let constrained_task_gen =
  QCheck2.Gen.(
    let* t_units = oneofl [ 2; 4; 5; 8; 10 ] in
    let* d_units = frequency [ (2, return t_units); (1, int_range 1 t_units) ] in
    let deadline = Model.Time.of_units d_units in
    let* c_ticks = int_range 1 (Model.Time.ticks deadline) in
    let* area = frequency [ (3, int_range 1 5); (1, int_range 6 10) ] in
    return
      (Model.Task.make ~exec:(Model.Time.of_ticks c_ticks) ~deadline
         ~period:(Model.Time.of_units t_units) ~area ()))

let constrained_taskset_gen =
  QCheck2.Gen.(list_size (int_range 1 4) constrained_task_gen >|= Model.Taskset.of_list)

let extend t extra = Model.Taskset.of_list (Model.Taskset.to_list t @ [ extra ])

let prop_extension_monotone ?(gen = small_taskset_gen) ?(task = small_task_gen) name analyzer =
  let accepts = Core.Analyzer.accepts analyzer in
  Core_helpers.qtest name
    QCheck2.Gen.(pair gen task)
    (fun (t, extra) ->
      (* adding a task can only hurt *)
      (not (accepts ~fpga_area (extend t extra))) || accepts ~fpga_area t)

let prop_dp_monotone = prop_extension_monotone "DP monotone under extension" Core.Analyzer.dp
let prop_gn1_monotone = prop_extension_monotone "GN1 monotone under extension" Core.Analyzer.gn1

let prop_constrained_extension_monotone (analyzer : Core.Analyzer.t) =
  prop_extension_monotone ~gen:constrained_taskset_gen ~task:constrained_task_gen
    (analyzer.Core.Analyzer.name ^ " monotone under extension")
    analyzer

let prop_area_monotone (analyzer : Core.Analyzer.t) =
  let accepts = Core.Analyzer.accepts analyzer in
  Core_helpers.qtest
    (analyzer.Core.Analyzer.name ^ " monotone in A(H)")
    QCheck2.Gen.(pair constrained_taskset_gen (int_range 1 12))
    (fun (t, fpga_area) ->
      (* a column more can only help *)
      (not (accepts ~fpga_area t)) || accepts ~fpga_area:(fpga_area + 1) t)

(* Both relations above the oracle's reach: 200 generator sets (Figure
   3's profile, N = 2..32, US drawn on [1, 50)) on A(H) = 100.  A set
   that an analyzer accepts must stay accepted without one of its
   tasks, and on 101 columns.  Each analyzer must accept at least 10
   of the sets (DP accepts 28), or the relations would hold almost
   vacuously. *)
let generator_sets_monotone () =
  let rng = Rng.create ~seed:2007 in
  let accepted = Array.make (List.length closed_form) 0 in
  for case = 0 to 199 do
    let n = 2 + (case mod 31) in
    let target_us = Rng.float_range rng 1. 50. in
    match Model.Generator.draw_with_target_us rng (Model.Generator.unconstrained ~n) ~target_us with
    | None -> Alcotest.failf "case %d: US %g unreachable at N = %d" case target_us n
    | Some t ->
      let drop = Rng.int rng n in
      let smaller =
        Model.Taskset.of_list (List.filteri (fun i _ -> i <> drop) (Model.Taskset.to_list t))
      in
      List.iteri
        (fun ai (a : Core.Analyzer.t) ->
          let accepts = Core.Analyzer.accepts a in
          if accepts ~fpga_area:100 t then begin
            accepted.(ai) <- accepted.(ai) + 1;
            if not (accepts ~fpga_area:100 smaller) then
              Alcotest.failf "case %d: %s accepts %a but not its task %d removed" case a.name
                Model.Taskset.pp t (drop + 1);
            if not (accepts ~fpga_area:101 t) then
              Alcotest.failf "case %d: %s accepts %a on 100 columns, not on 101" case a.name
                Model.Taskset.pp t
          end)
        closed_form
  done;
  List.iteri
    (fun ai (a : Core.Analyzer.t) ->
      if accepted.(ai) < 10 then
        Alcotest.failf "%s accepted only %d of the 200 sets" a.name accepted.(ai))
    closed_form

(* --- verdict and report plumbing --- *)

let verdict_utilities () =
  let t = ts [ ("a", "6", "5", "5", 7); ("b", "1", "5", "5", 1) ] in
  let v = Core.Gn1.decide ~fpga_area t in
  check_bool "rejected" false (Core.Verdict.accepted v);
  check_bool "task 0 flagged" true (List.mem 0 (Core.Verdict.failing_tasks v));
  let r = Core.Report.run ~fpga_area t in
  let line = Core.Report.summary_line r in
  check_bool "summary mentions DP" true
    (String.length line > 0 && String.sub line 0 3 = "DP:")

let composite_is_disjunction () =
  let sets =
    [
      ts [ ("tau1", "1.26", "7", "7", 9); ("tau2", "0.95", "5", "5", 6) ];
      ts [ ("tau1", "4.50", "8", "8", 3); ("tau2", "8.00", "9", "9", 5) ];
      ts [ ("a", "6", "5", "5", 7) ];
    ]
  in
  List.iter
    (fun t ->
      let expected =
        Core.Analyzer.(accepts dp) ~fpga_area t || Core.Analyzer.(accepts gn1) ~fpga_area t
        || Core.Analyzer.(accepts gn2) ~fpga_area t
      in
      check_bool "any-of = disjunction" expected (Core_helpers.any_accepts ~fpga_area t);
      (* the report over the defaults, whose any-of is redf analyze's exit status *)
      let report = Core.Report.run ~fpga_area t in
      check_bool "report consistent" expected
        (List.exists Core.Verdict.accepted report.Core.Report.verdicts))
    sets

(* --- necessary feasibility conditions --- *)

let feasibility_basics () =
  (* US > A(H) *)
  let over = ts [ ("a", "9", "10", "10", 6); ("b", "9", "10", "10", 6) ] in
  check_bool "device overload detected" false (Core.Feasibility.feasible_maybe ~fpga_area over);
  check_bool "has Device_overloaded" true
    (List.exists
       (function Core.Feasibility.Device_overloaded _ -> true | _ -> false)
       (Core.Feasibility.check ~fpga_area over));
  (* C > min(D,T) *)
  let bad_c = ts [ ("a", "4", "3", "5", 2) ] in
  check_bool "exec window violation" false (Core.Feasibility.feasible_maybe ~fpga_area bad_c);
  (* clean set passes *)
  let ok = ts [ ("a", "1", "5", "5", 3); ("b", "1", "5", "5", 3) ] in
  check_bool "clean set maybe feasible" true (Core.Feasibility.feasible_maybe ~fpga_area ok)

let feasibility_clique () =
  (* three tasks pairwise exclusive on A(H)=10 (areas 6,6,6), densities
     0.4 each: total 1.2 > 1 although US = 7.2 <= 10 *)
  let t = ts [ ("a", "4", "10", "10", 6); ("b", "4", "10", "10", 6); ("c", "4", "10", "10", 6) ] in
  check_bool "US under device area" true
    (Rat.compare (Model.Taskset.system_utilization t) (Rat.of_int fpga_area) <= 0);
  let violations = Core.Feasibility.check ~fpga_area t in
  check_bool "clique violation found" true
    (List.exists
       (function Core.Feasibility.Clique_overloaded _ -> true | _ -> false)
       violations);
  (* and the clique really is all three tasks *)
  let cliques = Core.Feasibility.exclusion_cliques ~fpga_area t in
  check_bool "triangle found" true (List.mem [ 0; 1; 2 ] cliques)

let feasibility_no_false_cliques () =
  (* areas 6 and 4 fit together: no exclusion edge *)
  let t = ts [ ("a", "9", "10", "10", 6); ("b", "9", "10", "10", 4) ] in
  Alcotest.(check (list (list int))) "no cliques" [] (Core.Feasibility.exclusion_cliques ~fpga_area t)

(* infeasibility certificates are real: a violated taskset must miss in
   the synchronous simulation over an exact hyper-period (implicit
   deadlines) *)
let prop_feasibility_certificate =
  Core_helpers.qtest ~count:400 "necessary-condition violation => simulated miss"
    small_taskset_gen (fun t ->
      Core.Feasibility.feasible_maybe ~fpga_area t
      ||
      let hyper =
        match Model.Taskset.hyperperiod t with
        | Model.Taskset.Finite h -> h
        | Model.Taskset.Exceeds_cap -> Model.Time.of_units 10_000
      in
      let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
      not (Sim.Engine.schedulable { cfg with Sim.Engine.horizon = hyper } t))

(* --- partitioned scheduling --- *)

let partitioned_allocation () =
  (* two wide tasks that cannot share a partition, one narrow filler *)
  let t = ts [ ("w1", "2", "10", "10", 6); ("w2", "2", "10", "10", 3); ("n", "1", "10", "10", 1) ] in
  let plan = Core.Partitioned.first_fit_decreasing ~fpga_area t in
  check_bool "schedulable" true (Core.Partitioned.schedulable plan);
  check_bool "width within device" true (Core.Partitioned.used_width plan <= fpga_area);
  Alcotest.(check (list string)) "nothing unassigned" []
    (List.map (fun (x : Model.Task.t) -> x.name) plan.Core.Partitioned.unassigned)

let partitioned_over_capacity () =
  (* three 6-wide tasks each with density > 1/2: pairwise unshareable and
     only one 6-wide partition fits in 10 columns *)
  let t = ts [ ("a", "6", "10", "10", 6); ("b", "6", "10", "10", 6); ("c", "6", "10", "10", 6) ] in
  let plan = Core.Partitioned.first_fit_decreasing ~fpga_area t in
  check_bool "not schedulable" false (Core.Partitioned.schedulable plan);
  check_bool "someone unassigned" true (plan.Core.Partitioned.unassigned <> [])

let partitioned_bin_packing_cost () =
  (* Partitioned scheduling loses to global scheduling on bin packing: a
     full-width task forces a width-10 partition, and first-fit-decreasing
     can then pack only one of the two 5-wide tasks (density 0.5 each)
     with it before running out of both density and device width.  Global
     EDF timeshares: the full-width job runs alone in [0,2), the 5-wide
     pair runs in parallel in [2,7), all deadlines at 10 are met. *)
  let t = ts [ ("full", "2", "10", "10", 10); ("a", "5", "10", "10", 5); ("b", "5", "10", "10", 5) ] in
  check_bool "partitioned rejects" false (Core.Partitioned.accepts ~fpga_area t);
  let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
  check_bool "global EDF-NF simulates fine" true
    (Sim.Engine.schedulable { cfg with Sim.Engine.horizon = Model.Time.of_units 100 } t)

let () =
  Alcotest.run "analysis"
    [
      ( "edge cases",
        [
          Alcotest.test_case "single task accepted" `Quick single_task_accepted;
          Alcotest.test_case "overloaded single rejected" `Quick overloaded_single_rejected;
          Alcotest.test_case "too-wide rejected" `Quick too_wide_rejected;
          Alcotest.test_case "DP applicability" `Quick applicability;
        ] );
      ( "gn1",
        [
          Alcotest.test_case "zero-jobs carry-in" `Quick gn1_zero_jobs_carry_in;
          Alcotest.test_case "index errors" `Quick gn1_index_errors;
        ] );
      ( "gn2",
        [
          Alcotest.test_case "candidate set" `Quick gn2_candidate_set;
          Alcotest.test_case "beta cases" `Quick gn2_beta_cases;
          prop_gn2_candidates_complete;
        ] );
      ( "multiprocessor",
        [
          Alcotest.test_case "GFB agrees with DP" `Quick gfb_agrees_with_dp;
          Alcotest.test_case "width check" `Quick mp_width_check;
          prop_gfb_reduction;
          prop_bcl_reduction;
        ] );
      ( "monotonicity",
        [ prop_dp_monotone; prop_gn1_monotone ]
        @ List.map prop_constrained_extension_monotone
            Core.Analyzer.[ dp_original; gn1_printed; gn2; nec ]
        @ List.map prop_area_monotone closed_form
        @ [
            Alcotest.test_case "generator sets, N <= 32, A(H) = 100" `Quick
              generator_sets_monotone;
          ] );
      ( "plumbing",
        [
          Alcotest.test_case "verdict utilities" `Quick verdict_utilities;
          Alcotest.test_case "composite is disjunction" `Quick composite_is_disjunction;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "basics" `Quick feasibility_basics;
          Alcotest.test_case "exclusion cliques" `Quick feasibility_clique;
          Alcotest.test_case "no false cliques" `Quick feasibility_no_false_cliques;
          prop_feasibility_certificate;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "allocation" `Quick partitioned_allocation;
          Alcotest.test_case "over capacity" `Quick partitioned_over_capacity;
          Alcotest.test_case "bin packing cost" `Quick partitioned_bin_packing_cost;
        ] );
    ]
