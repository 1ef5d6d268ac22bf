(* Tests for the exact-analysis extensions: the processor-demand
   criterion (Core.Dbf), the demand-bound-backed partitioned test, and
   the exhaustive release-offset search (Sim.Exhaustive). *)

module Time = Model.Time

let check_bool = Alcotest.(check bool)
let ts = Core_helpers.taskset

(* --- demand bound function --- *)

let dbf_values () =
  let t = ts [ ("a", "2", "5", "5", 1) ] in
  Core_helpers.check_time "dbf before D" Time.zero (Core.Dbf.demand t ~at:(Time.of_units 4));
  Core_helpers.check_time "dbf at D" (Time.of_units 2) (Core.Dbf.demand t ~at:(Time.of_units 5));
  Core_helpers.check_time "dbf mid" (Time.of_units 2) (Core.Dbf.demand t ~at:(Time.of_units 9));
  Core_helpers.check_time "dbf second job" (Time.of_units 4)
    (Core.Dbf.demand t ~at:(Time.of_units 10));
  let two = ts [ ("a", "2", "2", "4", 1); ("b", "2", "3", "4", 1) ] in
  Core_helpers.check_time "dbf both deadlines" (Time.of_units 4)
    (Core.Dbf.demand two ~at:(Time.of_units 3))

let dbf_full_utilization () =
  (* implicit deadlines, UT = 1: EDF is optimal, must be schedulable *)
  let t = ts [ ("a", "2", "4", "4", 1); ("b", "2", "4", "4", 1) ] in
  check_bool "UT = 1 schedulable" true (Core.Dbf.schedulable t);
  let over = ts [ ("a", "3", "4", "4", 1); ("b", "2", "4", "4", 1) ] in
  check_bool "UT > 1 overloaded" true (Core.Dbf.uniprocessor_edf over = Core.Dbf.Overloaded)

let dbf_constrained_violation () =
  (* dbf(3) = 4 > 3 *)
  let t = ts [ ("a", "2", "2", "4", 1); ("b", "2", "3", "4", 1) ] in
  match Core.Dbf.uniprocessor_edf t with
  | Core.Dbf.Demand_exceeds { at; demand } ->
    Core_helpers.check_time "violation instant" (Time.of_units 3) at;
    Core_helpers.check_time "demand" (Time.of_units 4) demand
  | other ->
    Alcotest.failf "expected a demand violation, got %s"
      (Format.asprintf "%a" Core.Dbf.pp_result other)

let dbf_beats_density () =
  (* density = 1/1 + 4/8 = 1.5 rejects; the demand criterion proves the
     set schedulable (tau1 runs [0,1], tau2 [1,5], deadline 8) *)
  let t = ts [ ("a", "1", "1", "10", 1); ("b", "4", "8", "10", 1) ] in
  check_bool "density rejects" false (Core.Partitioned.accepts ~test:Core.Partitioned.Density ~fpga_area:1 t);
  check_bool "demand accepts" true (Core.Dbf.schedulable t);
  check_bool "partitioned with demand accepts" true
    (Core.Partitioned.accepts ~test:Core.Partitioned.Demand_bound ~fpga_area:1 t)

let dbf_check_points () =
  let t = ts [ ("a", "1", "1", "10", 1); ("b", "4", "8", "10", 1) ] in
  let points = Core.Dbf.check_points t in
  (* Baruah horizon: S = 1*9/10 + 4*2/10 = 1.7, UT = 0.5 -> 3.4;
     horizon = max(3.4, Dmax 8) = 8, so points are {1, 8} *)
  Alcotest.(check (list string)) "points" [ "1"; "8" ] (List.map Time.to_string points)

let dbf_truncation () =
  let t = ts [ ("a", "1", "1", "10", 1); ("b", "4", "8", "10", 1) ] in
  check_bool "tiny cap truncates" true
    (Core.Dbf.uniprocessor_edf ~horizon_cap:(Time.of_units 1) t = Core.Dbf.Horizon_truncated)

(* the demand criterion agrees with simulation on one "processor"
   (width-1 tasks on a 1-column device) for exact-horizon cases *)
let prop_dbf_matches_simulation =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (let* t_units = oneofl [ 2; 4; 5; 8 ] in
         let period = Model.Time.of_units t_units in
         let* c = int_range 1 (Model.Time.ticks period) in
         let* d_frac = int_range 5 10 in
         let deadline = Model.Time.of_ticks (Model.Time.ticks period * d_frac / 10) in
         let exec = Model.Time.of_ticks (min c (Model.Time.ticks deadline)) in
         return (Model.Task.make ~exec ~deadline ~period ~area:1 ()))
      >|= Model.Taskset.of_list)
  in
  Core_helpers.qtest ~count:300 "dbf = uniprocessor EDF simulation" gen (fun t ->
      match Core.Dbf.uniprocessor_edf t with
      | Core.Dbf.Horizon_truncated -> true (* inconclusive *)
      | verdict ->
        let accepted = verdict = Core.Dbf.Schedulable in
        let hyper =
          match Model.Taskset.hyperperiod t with
          | Model.Taskset.Finite h -> h
          | Model.Taskset.Exceeds_cap -> Time.of_units 10_000
        in
        let dmax =
          List.fold_left
            (fun acc (x : Model.Task.t) -> Time.max acc x.deadline)
            Time.zero (Model.Taskset.to_list t)
        in
        let cfg = Sim.Engine.default_config ~fpga_area:1 ~policy:Sim.Policy.edf_nf in
        let cfg = { cfg with Sim.Engine.horizon = Time.add hyper dmax } in
        (* the demand criterion covers all release patterns; synchronous
           release is the uniprocessor worst case, so they must agree *)
        accepted = Sim.Engine.schedulable cfg t)

(* --- exhaustive offset search --- *)

let fpga_area = 10

(* found by randomized search (see DESIGN.md): the synchronous pattern
   is schedulable to the hyper-period, offsets (0, 2, 0.5) miss *)
let witness =
  ts [ ("t0", "3", "3", "3", 6); ("t1", "1", "3", "3", 4); ("t2", "1", "2", "2", 4) ]

let no_critical_instant () =
  (* the oracle refutes with an offset assignment only when the
     synchronous release meets every deadline *)
  check_bool "sync is not the worst case" true
    (match
       Exact.Oracle.decide ~grid:(Time.of_ticks 500) ~fpga_area ~policy:Sim.Policy.edf_nf witness
     with
     | Exact.Oracle.Unschedulable (Exact.Oracle.Offset_miss _) -> true
     | _ -> false);
  match
    Sim.Exhaustive.search ~grid:(Time.of_ticks 500) ~fpga_area ~policy:Sim.Policy.edf_nf witness
  with
  | Sim.Exhaustive.Miss_with_offsets { offsets; miss = _ } ->
    Alcotest.(check int) "one offset per task" 3 (List.length offsets)
  | _ -> Alcotest.fail "expected an offset assignment with a miss"

let exhaustive_schedulable () =
  let t = ts [ ("a", "1", "3", "3", 4); ("b", "1", "2", "2", 4) ] in
  match Sim.Exhaustive.search ~fpga_area ~policy:Sim.Policy.edf_nf t with
  | Sim.Exhaustive.Schedulable_all_offsets { combinations } ->
    (* grid 1: offsets {0,1,2} x {0,1} *)
    Alcotest.(check int) "combinations" 6 combinations
  | _ -> Alcotest.fail "expected schedulable for all offsets"

let exhaustive_limits () =
  let t = ts [ ("a", "1", "10", "10", 4); ("b", "1", "10", "10", 4) ] in
  (match
     Sim.Exhaustive.search ~grid:(Time.of_ticks 10) ~max_combinations:100 ~fpga_area
       ~policy:Sim.Policy.edf_nf t
   with
   | Sim.Exhaustive.Too_many_combinations { combinations } ->
     Alcotest.(check int) "counted" (1000 * 1000) combinations
   | _ -> Alcotest.fail "expected combination explosion");
  let awkward = ts [ ("a", "1", "7.001", "7.001", 4); ("b", "1", "6.997", "6.997", 4); ("c", "1", "6.991", "6.991", 4) ] in
  check_bool "unbounded hyperperiod" true
    (Sim.Exhaustive.search ~fpga_area ~policy:Sim.Policy.edf_nf awkward
     = Sim.Exhaustive.Hyperperiod_too_large)

(* exhaustive-search coherence on random small sets: if the search finds
   no miss on the offset grid, the synchronous simulation cannot miss
   either (offset 0 is on every grid) *)
let prop_exhaustive_covers_sync =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 3)
        (let* t_units = oneofl [ 2; 3; 4 ] in
         let period = Model.Time.of_units t_units in
         let* c = int_range 1 (Model.Time.ticks period) in
         let* area = int_range 3 8 in
         return (Model.Task.make ~exec:(Model.Time.of_ticks c) ~deadline:period ~period ~area ()))
      >|= Model.Taskset.of_list)
  in
  Core_helpers.qtest ~count:60 "exhaustive covers synchronous" gen (fun t ->
      match Sim.Exhaustive.search ~fpga_area ~policy:Sim.Policy.edf_nf t with
      | Sim.Exhaustive.Schedulable_all_offsets _ ->
        let hyper =
          match Model.Taskset.hyperperiod t with
          | Model.Taskset.Finite h -> h
          | Model.Taskset.Exceeds_cap -> assert false
        in
        let cfg = Sim.Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
        Sim.Engine.schedulable { cfg with Sim.Engine.horizon = hyper } t
      | _ -> true)

(* --- the exact oracle (lib/exact) --- *)

let policy = Sim.Policy.edf_nf
let verdict_str v = Wire.Json.to_string (Core.Verdict.to_json v)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* pinned alongside examples/tasksets/gap_*.csv: every sufficient test
   rejects, the oracle accepts with a full offset certificate *)
let oracle_gap_regression () =
  let cases =
    [
      (ts [ ("wide1", "1", "4", "4", 4); ("wide2", "1", "4", "4", 4) ], 4, 16);
      ( ts [ ("half1", "1", "3", "3", 2); ("half2", "1", "3", "3", 2); ("half3", "1", "3", "3", 2) ],
        2,
        27 );
    ]
  in
  List.iter
    (fun (t, area, combos) ->
      List.iter
        (fun a -> check_bool (a.Core.Analyzer.name ^ " rejects") false
             (Core.Analyzer.accepts a ~fpga_area:area t))
        Core.Analyzer.defaults;
      match Exact.Oracle.decide ~fpga_area:area ~policy t with
      | Exact.Oracle.Schedulable (Exact.Oracle.All_offsets { combinations; _ }) ->
        Alcotest.(check int) "combinations" combos combinations
      | _ -> Alcotest.fail "expected a full offset certificate")
    cases

(* pinned alongside examples/tasksets/infeasible_*.csv *)
let oracle_rejects_infeasible () =
  let exclusive = ts [ ("ex1", "2", "3", "4", 3); ("ex2", "2", "3", "4", 3) ] in
  (match Exact.Oracle.decide ~fpga_area:4 ~policy exclusive with
   | Exact.Oracle.Unschedulable (Exact.Oracle.Sync_miss _) -> ()
   | _ -> Alcotest.fail "expected a synchronous miss");
  let demand = ts [ ("dem1", "2", "2", "4", 3); ("dem2", "2", "2", "4", 3) ] in
  (match Exact.Oracle.decide ~fpga_area:4 ~policy demand with
   | Exact.Oracle.Unschedulable _ -> ()
   | _ -> Alcotest.fail "expected unschedulable");
  match Exact.Approx.analyze ~fpga_area:4 demand with
  | Exact.Approx.Refuted_at { at; demand = d; supply } ->
    Core_helpers.check_time "refutation instant" (Time.of_units 2) at;
    Core_helpers.check_bignum "demand column-ticks" (Bignum.of_int (2 * 2 * Time.scale * 3)) d;
    Core_helpers.check_bignum "supply column-ticks" (Bignum.of_int (4 * 2 * Time.scale)) supply
  | _ -> Alcotest.fail "expected an area-demand refutation"

(* the oracle's conclusion must agree with the primitives it is built
   from, checked independently per conclusion *)
let prop_oracle_matches_exhaustive =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 3)
        (let* t_units = oneofl [ 2; 3; 4 ] in
         let period = Model.Time.of_units t_units in
         let* c = int_range 1 (Model.Time.ticks period) in
         let* area = int_range 3 8 in
         return (Model.Task.make ~exec:(Model.Time.of_ticks c) ~deadline:period ~period ~area ()))
      >|= Model.Taskset.of_list)
  in
  Core_helpers.qtest ~count:60 "oracle agrees with Sim.Exhaustive and the engine" gen (fun t ->
      match Exact.Oracle.decide ~fpga_area ~policy t with
      | Exact.Oracle.Schedulable (Exact.Oracle.All_offsets { combinations; grid }) ->
        Sim.Exhaustive.search ~grid ~fpga_area ~policy t
        = Sim.Exhaustive.Schedulable_all_offsets { combinations }
      | Exact.Oracle.Unschedulable (Exact.Oracle.Sync_miss _) ->
        let horizon, _ = Exact.Interval.sync_horizon t in
        let cfg = Sim.Engine.default_config ~fpga_area ~policy in
        not (Sim.Engine.schedulable { cfg with Sim.Engine.horizon = horizon } t)
      | Exact.Oracle.Unschedulable (Exact.Oracle.Offset_miss { offsets; _ }) -> (
        match Sim.Exhaustive.search ~fpga_area ~policy t with
        | Sim.Exhaustive.Miss_with_offsets { offsets = o; _ } -> o = offsets
        | _ -> false)
      | _ -> true)

(* the sound direction of the epsilon contract: an approx REJECT claims
   infeasibility, so the oracle can never conclusively accept *)
let prop_approx_reject_implies_oracle_reject =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 2 3)
        (let* t_units = oneofl [ 2; 3; 4 ] in
         let period = Model.Time.of_units t_units in
         let* c = int_range 1 (Model.Time.ticks period) in
         let* d_frac = int_range 5 10 in
         let deadline = Model.Time.of_ticks (max 1 (Model.Time.ticks period * d_frac / 10)) in
         let exec = Model.Time.of_ticks (min c (Model.Time.ticks deadline)) in
         let* area = int_range 3 8 in
         return (Model.Task.make ~exec ~deadline ~period ~area ()))
      >|= Model.Taskset.of_list)
  in
  Core_helpers.qtest ~count:200 "approx REJECT => oracle does not conclusively accept" gen
    (fun t ->
      match Exact.Approx.analyze ~fpga_area t with
      | Exact.Approx.Accepted _ -> true
      | refutation -> (
        match Exact.Oracle.decide ~fpga_area ~policy t with
        | Exact.Oracle.Schedulable (Exact.Oracle.All_offsets _) -> false
        | Exact.Oracle.Schedulable (Exact.Oracle.Synchronous_only _) -> (
          (* a refutation point inside the certified synchronous horizon
             would contradict the certificate *)
          match refutation with
          | Exact.Approx.Refuted_at { at; _ } ->
            let horizon, truncated = Exact.Interval.sync_horizon t in
            truncated || Time.(at > horizon)
          | _ -> true)
        | _ -> true))

(* the oracle verdict canonicalizes internally, so a cache hit remapped
   through Cache.Verdicts is byte-for-byte a fresh computation on the
   permuted taskset *)
let exact_cached_equals_fresh_permuted () =
  let t = ts [ ("b", "1", "3", "3", 2); ("a", "1", "4", "4", 4); ("c", "2", "5", "5", 3) ] in
  let rev = Model.Taskset.of_list (List.rev (Model.Taskset.to_list t)) in
  List.iter
    (fun analyzer ->
      let cache = Cache.Verdicts.create ~metrics_prefix:"t.exact.cache" ~capacity:8 () in
      let fresh = analyzer.Core.Analyzer.decide ~fpga_area:6 rev in
      let (_ : Core.Verdict.t) = Cache.Verdicts.decide cache ~analyzer ~fpga_area:6 t in
      let cached = Cache.Verdicts.decide cache ~analyzer ~fpga_area:6 rev in
      Alcotest.(check string)
        ("cached = fresh for " ^ analyzer.Core.Analyzer.name)
        (verdict_str fresh) (verdict_str cached))
    [ Exact.Registry.exact_nf; Exact.Registry.approx_with Exact.Approx.default_eps ]

let oracle_jobs_deterministic () =
  let d j = Exact.Oracle.decide ~grid:(Time.of_ticks 500) ~jobs:j ~fpga_area ~policy witness in
  check_bool "oracle conclusion identical for -j1 and -j4" true (d 1 = d 4);
  match d 4 with
  | Exact.Oracle.Unschedulable (Exact.Oracle.Offset_miss _) -> ()
  | _ -> Alcotest.fail "expected the sub-grid witness offsets to refute"

(* --- area scaling --- *)

(* every A_i times k *)
let scale_areas k t =
  Model.Taskset.of_list
    (List.map (fun (task : Model.Task.t) -> { task with area = task.area * k }) (Model.Taskset.to_list t))

(* what scaling every A_i and A(H) by one k must keep: the accepted flag
   of NEC, the oracle under both policies, approx and both partitioned
   tests, and the first miss (task and time) of each simulated policy *)
let area_invariants ~fpga_area t =
  Exact.Registry.ensure ();
  let accepts name =
    match Core.Analyzer.of_name name with
    | Ok a -> Core.Analyzer.accepts a ~fpga_area t
    | Error e -> Alcotest.fail e
  in
  let first_miss policy =
    let cfg = Sim.Engine.default_config ~fpga_area ~policy in
    match (Sim.Engine.run { cfg with Sim.Engine.horizon = Time.of_units 24 } t).Sim.Engine.outcome with
    | Sim.Engine.No_miss -> None
    | Sim.Engine.Miss m -> Some (m.Sim.Engine.task_index, Time.ticks m.Sim.Engine.at)
  in
  ( List.map accepts [ "NEC"; "exact"; "exact-fkf"; "approx[1/10]" ]
    @ List.map
        (fun test -> Core.Partitioned.accepts ~test ~fpga_area t)
        [ Core.Partitioned.Density; Core.Partitioned.Demand_bound ],
    List.map first_miss [ Sim.Policy.edf_nf; Sim.Policy.edf_fkf ] )

(* each test compares areas only with sums and multiples of areas, so
   scaling them all, and A(H), by 2, 7 or the largest k at which A(H)
   still fits an int changes no decision: the largest k is where a
   plain-int sum of two areas wraps *)
let prop_area_scaling =
  let gen =
    QCheck2.Gen.(
      let* fpga_area = int_range 2 10 in
      let* tasks =
        list_size (int_range 2 3)
          (let* t_units = oneofl [ 2; 3; 4 ] in
           let* d_units = int_range 1 t_units in
           let* c_units = int_range 1 d_units in
           let* area = int_range 1 fpga_area in
           return
             (Model.Task.make ~exec:(Time.of_units c_units) ~deadline:(Time.of_units d_units)
                ~period:(Time.of_units t_units) ~area ()))
      in
      return (Model.Taskset.of_list tasks, fpga_area))
  in
  Core_helpers.qtest ~count:100 "scaling every area by 2, 7 or max_int / A(H) keeps every decision" gen
    (fun (t, fpga_area) ->
      let want = area_invariants ~fpga_area t in
      List.for_all
        (fun k -> area_invariants ~fpga_area:(fpga_area * k) (scale_areas k t) = want)
        [ 2; 7; max_int / fpga_area ])

(* three sets whose areas fill most of the int range: each decided
   differently from its small twin while a sum of two areas wrapped
   in plain ints (the simulator's free area, NEC's exclusion, the
   partitioned fit) or approx's demand and supply did *)
let wrap_reproductions () =
  let pair (c, d, t) (c', d', t') a = ts [ ("a", c, d, t, a); ("b", c', d', t', a) ] in
  let short = ("0.001", "0.001", "0.002") and long = ("0.499", "1", "1") and heavy = ("0.6", "1", "1") in
  let full = 2305843009213693952 in
  let fullwidth = pair short short and supply = pair short long and exclusive = pair heavy heavy in
  let decisions = Alcotest.(pair (list bool) (list (option (pair int int)))) in
  List.iter
    (fun (name, set, (a, fpga_area), (a', twin_area)) ->
      Alcotest.check decisions name
        (area_invariants ~fpga_area:twin_area (set a'))
        (area_invariants ~fpga_area (set a)))
    [
      ("full-width pair", fullwidth, (full, full), (10, 10));
      ("supply pair", supply, (full, full), (1000, 1000));
      ("exclusive pair", exclusive, (2767011611056432742, max_int), (6, 10));
    ];
  (* the decisions the wrapped sums got wrong; the flags are NEC, exact,
     exact-fkf, approx, partitioned density and demand bound *)
  Alcotest.check decisions
    "full-width pair: only NEC accepts; the second job misses at t=0.001"
    ([ true; false; false; false; false; false ], [ Some (1, 1); Some (1, 1) ])
    (area_invariants ~fpga_area:full (fullwidth full));
  Alcotest.(check (list bool)) "supply pair: approx accepts"
    [ true ] [ List.nth (fst (area_invariants ~fpga_area:full (supply full))) 3 ];
  Alcotest.(check (list bool)) "exclusive pair: NEC, exact and partitioned density reject" [ false; false; false ]
    (let flags, _ = area_invariants ~fpga_area:max_int (exclusive 2767011611056432742) in
     [ List.nth flags 0; List.nth flags 1; List.nth flags 4 ]);
  (* a deadline near max_int ticks: H + D_max wrapped negative, and
     approx checked no point at all *)
  let wide = 1_000_000_000_000_000 in
  let two_full_width d = ts [ ("a", "1", "1", "10", wide); ("b", "1", "1", "10", wide); ("c", "1", d, "10", 1) ] in
  List.iter
    (fun d ->
      match Exact.Approx.analyze ~fpga_area:wide (two_full_width d) with
      | Exact.Approx.Refuted_at { at; _ } -> Core_helpers.check_time ("refuted at t=1, D_c = " ^ d) (Time.of_units 1) at
      | _ -> Alcotest.failf "approx accepts two full-width jobs due at t=1 (D_c = %s)" d)
    [ "100"; "4611686018427387" ]

(* --- registry --- *)

let registry_resolution () =
  Exact.Registry.ensure ();
  Exact.Registry.ensure ();
  (* idempotent *)
  let resolved name =
    match Core.Analyzer.of_name name with
    | Ok a -> a.Core.Analyzer.name
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "exact" "exact" (resolved "exact");
  Alcotest.(check string) "exact-fkf" "exact-fkf" (resolved "EXACT-FKF");
  Alcotest.(check string) "bare approx = default eps" "approx[1/10]" (resolved "approx");
  Alcotest.(check string) "decimal eps normalizes" "approx[1/10]" (resolved "APPROX[0.1]");
  Alcotest.(check string) "fraction eps" "approx[1/100]" (resolved "approx[1/100]");
  check_bool "duplicate registration keeps one entry" true
    (List.length (List.filter (fun a -> a.Core.Analyzer.name = "exact") (Core.Analyzer.all ()))
     = 1);
  check_bool "zero eps rejected" true (Result.is_error (Core.Analyzer.of_name "approx[0]"));
  check_bool "negative eps rejected" true (Result.is_error (Core.Analyzer.of_name "approx[-1/2]"));
  check_bool "malformed eps rejected" true (Result.is_error (Core.Analyzer.of_name "approx[x]"));
  match Core.Analyzer.of_name "nope" with
  | Ok _ -> Alcotest.fail "bogus name resolved"
  | Error e ->
    check_bool "error lists exact" true (contains e "exact");
    check_bool "error lists the approx syntax" true (contains e "approx[EPS]")

let () =
  Alcotest.run "exact"
    [
      ( "dbf",
        [
          Alcotest.test_case "demand values" `Quick dbf_values;
          Alcotest.test_case "full utilization" `Quick dbf_full_utilization;
          Alcotest.test_case "constrained violation" `Quick dbf_constrained_violation;
          Alcotest.test_case "demand beats density" `Quick dbf_beats_density;
          Alcotest.test_case "check points" `Quick dbf_check_points;
          Alcotest.test_case "horizon truncation" `Quick dbf_truncation;
          prop_dbf_matches_simulation;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "no critical instant witness" `Quick no_critical_instant;
          Alcotest.test_case "schedulable for all offsets" `Quick exhaustive_schedulable;
          Alcotest.test_case "search limits" `Quick exhaustive_limits;
          prop_exhaustive_covers_sync;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "gap regression (sufficient tests reject)" `Quick
            oracle_gap_regression;
          Alcotest.test_case "rejects infeasible sets" `Quick oracle_rejects_infeasible;
          Alcotest.test_case "cached = fresh under permutation" `Quick
            exact_cached_equals_fresh_permuted;
          Alcotest.test_case "deterministic for any jobs" `Quick oracle_jobs_deterministic;
          prop_oracle_matches_exhaustive;
          prop_approx_reject_implies_oracle_reject;
        ] );
      ( "scaling",
        [ prop_area_scaling; Alcotest.test_case "wrap reproductions decide as their twins" `Quick wrap_reproductions ]
      );
      ("registry", [ Alcotest.test_case "name resolution" `Quick registry_resolution ]);
    ]
