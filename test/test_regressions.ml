(* Regression tests for soundness bugs found by property testing during
   development.

   The paper's Lemma 3 states its GN1 bound non-strictly
   (lhs <= (A(H)-A_k+1)(D_k-C_k) implies schedulability); random testing
   against exact-hyperperiod simulation found tasksets sitting exactly on
   the equality boundary that nevertheless miss a deadline under EDF-NF.
   GN1 therefore compares strictly (DESIGN.md section 2).  Each taskset
   below is such a boundary case: the non-strict form would accept it,
   the strict form must reject it, and the simulator must observe the
   miss. *)

module Engine = Sim.Engine

let check_bool = Alcotest.(check bool)
let ts = Core_helpers.taskset
let fpga_area = 10

let hyperperiod_exn t =
  match Model.Taskset.hyperperiod t with
  | Model.Taskset.Finite h -> h
  | Model.Taskset.Exceeds_cap -> Alcotest.fail "finite hyperperiod expected"

let counterexamples =
  [
    (* two tasks that can never run concurrently: the device degenerates
       to a serial resource with demand > 1 *)
    ("serial pair A", [ ("t0", "7.735", "8", "8", 8); ("t1", "0.558", "2", "2", 3) ]);
    ("serial pair B", [ ("t0", "1.04", "5", "5", 3); ("t1", "8.433", "10", "10", 8) ]);
    ("full-width + unit", [ ("t0", "7.921", "8", "8", 10); ("t1", "7.301", "10", "10", 1) ]);
    ( "three-task boundary",
      [ ("t0", "2.04", "4", "4", 1); ("t1", "1.582", "4", "4", 1); ("t2", "7.102", "8", "8", 9) ] );
    ( "boundary at every k",
      [ ("t0", "1.297", "2", "2", 4); ("t1", "2.52", "5", "5", 2); ("t2", "1.718", "2", "2", 5) ] );
  ]

let gn1_boundary_cases () =
  List.iter
    (fun (name, rows) ->
      let t = ts rows in
      (* the strict GN1 must reject *)
      check_bool (name ^ ": GN1 rejects") false (Core.Analyzer.(accepts gn1) ~fpga_area t);
      (* at least one per-task check sits exactly on the boundary, which
         is what the non-strict reading would have accepted *)
      let v = Core.Gn1.decide ~fpga_area t in
      let on_boundary =
        List.exists (fun c -> Rat.equal c.Core.Verdict.lhs c.Core.Verdict.rhs) v.Core.Verdict.checks
      in
      check_bool (name ^ ": equality boundary") true on_boundary;
      (* and the miss is real *)
      let cfg = Engine.default_config ~fpga_area ~policy:Sim.Policy.edf_nf in
      let r = Engine.run { cfg with Engine.horizon = hyperperiod_exn t } t in
      check_bool (name ^ ": simulator observes the miss") true (r.Engine.outcome <> Engine.No_miss))
    counterexamples

(* The other tests must also reject these unschedulable sets. *)
let others_reject_too () =
  List.iter
    (fun (name, rows) ->
      let t = ts rows in
      check_bool (name ^ ": DP rejects") false (Core.Analyzer.(accepts dp) ~fpga_area t);
      check_bool (name ^ ": GN2 rejects") false (Core.Analyzer.(accepts gn2) ~fpga_area t);
      check_bool (name ^ ": printed GN1 rejects") false
        (Core.Analyzer.(accepts gn1_printed) ~fpga_area t))
    counterexamples

let () =
  Alcotest.run "regressions"
    [
      ( "gn1 boundary",
        [
          Alcotest.test_case "strict GN1 rejects boundary cases" `Quick gn1_boundary_cases;
          Alcotest.test_case "DP and GN2 reject them too" `Quick others_reject_too;
        ] );
    ]
