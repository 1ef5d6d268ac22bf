(* Tests for fixed-point time, tasks, tasksets and the synthetic
   generators. *)

module Time = Model.Time
module Task = Model.Task
module Taskset = Model.Taskset
module Generator = Model.Generator

let check_bool = Alcotest.(check bool)
let check_rat = Core_helpers.check_rat
let check_time = Core_helpers.check_time

(* --- Time --- *)

let time_decimal () =
  check_time "1.26" (Time.of_ticks 1260) (Time.of_decimal_string "1.26");
  check_time "7" (Time.of_ticks 7000) (Time.of_decimal_string "7");
  check_time "0.001" (Time.of_ticks 1) (Time.of_decimal_string "0.001");
  check_time "-2.5" (Time.of_ticks (-2500)) (Time.of_decimal_string "-2.5");
  Alcotest.check_raises "too fine"
    (Invalid_argument "Time.of_decimal_string: \"0.0001\" is finer than 1/1000") (fun () ->
      ignore (Time.of_decimal_string "0.0001"))

let time_strings () =
  Alcotest.(check string) "whole" "7" (Time.to_string (Time.of_units 7));
  Alcotest.(check string) "frac" "1.26" (Time.to_string (Time.of_ticks 1260));
  Alcotest.(check string) "trim zeros" "2.5" (Time.to_string (Time.of_ticks 2500));
  Alcotest.(check string) "millis" "0.001" (Time.to_string (Time.of_ticks 1));
  Alcotest.(check string) "negative" "-1.5" (Time.to_string (Time.of_ticks (-1500)))

let time_arith () =
  check_time "add" (Time.of_units 3) (Time.add (Time.of_units 1) (Time.of_units 2));
  check_time "sub" (Time.of_ticks 500) (Time.sub (Time.of_units 1) (Time.of_ticks 500));
  check_time "mul_int" (Time.of_units 6) (Time.mul_int (Time.of_units 2) 3);
  check_rat "to_rat exact" (Rat.of_ints 63 50) (Time.to_rat (Time.of_decimal_string "1.26"));
  check_bool "round" true (Time.equal (Time.of_float_round 1.2604) (Time.of_ticks 1260))

(* --- the int parser against the exact-rational reference --- *)

let outcome parse s =
  match parse s with
  | t -> `Ticks (Time.ticks t)
  | exception Invalid_argument m -> `Invalid m
  | exception Failure m -> `Failure m

(* the reference's outcome, mapped through the two documented
   differences: a signed fraction ("1.+5", "1.-0") that got past the
   reference's syntax check is now a syntax error, and a tick count
   beyond [int] raises [Invalid_argument] instead of [Failure] *)
let expected s reference =
  let signed_fraction =
    match String.index_opt s '.' with
    | Some i -> i + 1 < String.length s && (s.[i + 1] = '+' || s.[i + 1] = '-')
    | None -> false
  in
  let past_syntax =
    match reference with
    | `Ticks _ | `Failure _ -> true
    | `Invalid m -> String.starts_with ~prefix:"Time." m
  in
  if signed_fraction && past_syntax then `Invalid "Rat.of_decimal_string: sign in fraction"
  else
    match reference with
    | `Failure _ -> `Invalid (Printf.sprintf "Time.of_decimal_string: %S is out of range" s)
    | r -> r

let show = function
  | `Ticks t -> Printf.sprintf "ticks %d" t
  | `Invalid m -> "Invalid_argument " ^ m
  | `Failure m -> "Failure " ^ m

let mismatch s =
  let want = expected s (outcome Time_reference.of_decimal_string s) in
  let got = outcome Time.of_decimal_string s in
  if got = want then None else Some (Printf.sprintf "%S: %s, want %s" s (show got) (show want))

let agrees s = match mismatch s with None -> true | Some m -> QCheck2.Test.fail_report m

let time_decimal_boundaries () =
  List.iter
    (fun s -> Alcotest.(check (option string)) s None (mismatch s))
    [
      "1.26"; "1.260"; "01.5"; ".5"; "-.5"; "+.5"; "+7"; "7"; "-0"; "-0.000"; "0.0001"; "1.0000";
      "1.+5"; "1.-5"; "1.-0"; "1.+"; "1.-"; "1.+x"; ""; "+"; "-"; "."; "-."; "5."; "1e3"; " 1";
      "1 "; "1.2.3"; "--1"; "+-1"; "4611686018427387.903"; "4611686018427387.904";
      "-4611686018427387.904"; "-4611686018427387.905"; "4611686018427388"; "-4611686018427388";
      "99999999999999999999999"; "99999999999999999999999.0001"; "99999999999999999999999.+5";
      "0000000000000000000000001.5";
    ];
  check_time "max" (Time.of_ticks max_int) (Time.of_decimal_string "4611686018427387.903");
  check_time "min" (Time.of_ticks min_int) (Time.of_decimal_string "-4611686018427387.904");
  Alcotest.check_raises "out of range"
    (Invalid_argument "Time.of_decimal_string: \"4611686018427387.904\" is out of range") (fun () ->
      ignore (Time.of_decimal_string "4611686018427387.904"))

let time_units_range () =
  let m = max_int / Time.scale in
  check_time "largest" (Time.of_ticks (m * Time.scale)) (Time.of_units m);
  check_time "smallest" (Time.of_ticks (-m * Time.scale)) (Time.of_units (-m));
  List.iter
    (fun u ->
      Alcotest.check_raises (string_of_int u)
        (Invalid_argument (Printf.sprintf "Time.of_units: %d is out of range" u)) (fun () ->
          ignore (Time.of_units u)))
    [ m + 1; -m - 1; 9223372036854776; max_int; min_int ]

(* signs, leading zeros, 0-6 fraction digits, trailing zeros, a bare
   dot, signed fractions, values next to max_int / 1000 units, long
   digit runs, and a stray byte anywhere *)
let spelling =
  let open QCheck2.Gen in
  let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
  let int_part =
    frequency
      [
        (4, digits 0 3);
        ( 2,
          map2 (fun z n -> String.make z '0' ^ string_of_int n) (int_range 0 3) (int_range 0 100_000) );
        (2, map (fun d -> string_of_int ((max_int / Time.scale) + d)) (int_range (-3) 3));
        (1, digits 17 24);
      ]
  in
  let frac =
    frequency
      [
        (1, return "");
        (4, map2 (fun ds z -> "." ^ ds ^ String.make z '0') (digits 0 6) (int_range 0 3));
        (1, map2 (fun sign ds -> "." ^ sign ^ ds) (oneofl [ "+"; "-" ]) (digits 0 3));
      ]
  in
  let clean = map3 (fun sign i f -> sign ^ i ^ f) (oneofl [ ""; ""; "+"; "-" ]) int_part frac in
  let stray s at c =
    let at = at mod (String.length s + 1) in
    String.sub s 0 at ^ String.make 1 c ^ String.sub s at (String.length s - at)
  in
  frequency
    [ (5, clean); (1, map3 stray clean nat (oneofl [ '.'; '+'; '-'; ' '; 'e'; 'x'; '0'; '9' ])) ]

let prop_time_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:5000 ~name:"int parser == exact-rational reference"
       ~print:(Printf.sprintf "%S") spelling agrees)

(* --- Task --- *)

let task_validation () =
  let t = Core_helpers.task "x" "1.26" "7" "7" 9 in
  check_rat "time utilization" (Rat.of_ints 9 50) (Task.time_utilization t);
  check_rat "system utilization" (Rat.of_ints 81 50) (Task.system_utilization t);
  check_rat "density" (Rat.of_ints 9 50) (Task.density t);
  check_bool "implicit" true (Task.is_implicit_deadline t);
  Alcotest.check_raises "zero exec" (Invalid_argument "Task.make: exec must be positive")
    (fun () -> ignore (Core_helpers.task "x" "0" "1" "1" 1));
  Alcotest.check_raises "zero area" (Invalid_argument "Task.make: area must be >= 1") (fun () ->
      ignore (Core_helpers.task "x" "1" "1" "1" 0))

let constrained_deadlines () =
  let t = Core_helpers.task "x" "1" "3" "5" 2 in
  check_bool "not implicit" false (Task.is_implicit_deadline t);
  check_bool "constrained" true (Task.is_constrained_deadline t);
  let post = Core_helpers.task "y" "1" "8" "5" 2 in
  check_bool "post-period not constrained" false (Task.is_constrained_deadline post)

(* --- Taskset --- *)

let table1 =
  Core_helpers.taskset [ ("tau1", "1.26", "7", "7", 9); ("tau2", "0.95", "5", "5", 6) ]

let taskset_aggregates () =
  check_rat "UT" (Rat.add (Rat.of_ints 9 50) (Rat.of_ints 19 100)) (Taskset.time_utilization table1);
  check_rat "US" (Rat.of_ints 69 25) (Taskset.system_utilization table1);
  Alcotest.(check int) "amax" 9 (Taskset.amax table1);
  Alcotest.(check int) "amin" 6 (Taskset.amin table1);
  Alcotest.(check int) "size" 2 (Taskset.size table1);
  check_bool "fits 10" true (Taskset.fits table1 ~fpga_area:10);
  check_bool "fits 8" false (Taskset.fits table1 ~fpga_area:8);
  Alcotest.check_raises "empty taskset" (Invalid_argument "Taskset.of_list: empty taskset")
    (fun () -> ignore (Taskset.of_list []))

let hyperperiod_cases () =
  (match Taskset.hyperperiod table1 with
   | Taskset.Finite h -> check_time "lcm(7,5)" (Time.of_units 35) h
   | Taskset.Exceeds_cap -> Alcotest.fail "expected finite hyperperiod");
  let awkward =
    Core_helpers.taskset
      [ ("a", "1", "7.001", "7.001", 1); ("b", "1", "6.997", "6.997", 1); ("c", "1", "6.991", "6.991", 1) ]
  in
  (match Taskset.hyperperiod ~cap:(Time.of_units 10_000) awkward with
   | Taskset.Exceeds_cap -> ()
   | Taskset.Finite h -> Alcotest.failf "expected cap overflow, got %s" (Time.to_string h))

let csv_roundtrip () =
  let csv = Taskset.to_csv table1 in
  let back = Taskset.of_csv csv in
  check_bool "roundtrip" true (Taskset.equal table1 back);
  Alcotest.check_raises "bad header" (Invalid_argument "Taskset.of_csv: bad header") (fun () ->
      ignore (Taskset.of_csv "x,y\n1,2\n"))

(* --- Generator --- *)

let in_profile (p : Generator.profile) ts =
  List.for_all
    (fun (t : Task.t) ->
      let u = Rat.to_float (Task.time_utilization t) in
      let period = Time.to_float t.period in
      t.area >= p.Generator.area_lo
      && t.area <= min p.Generator.area_hi p.Generator.fpga_area
      && period > p.Generator.period_lo && period < p.Generator.period_hi
      && Time.ticks t.period mod p.Generator.period_grid = 0
      && Task.is_implicit_deadline t
      (* one tick of exec rounding can push u marginally past the bound *)
      && u > 0.0
      && u <= p.Generator.util_hi +. 0.001)
    (Taskset.to_list ts)

let generator_respects_profile () =
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun p ->
      for _ = 1 to 50 do
        let ts = Generator.draw rng p in
        Alcotest.(check int) "task count" p.Generator.n (Taskset.size ts);
        check_bool "profile satisfied" true (in_profile p ts)
      done)
    [
      Generator.unconstrained ~n:4;
      Generator.unconstrained ~n:10;
      Generator.spatially_heavy_temporally_light ~n:10;
      Generator.spatially_light_temporally_heavy ~n:10;
    ]

let generator_hits_target () =
  let rng = Rng.create ~seed:11 in
  let p = Generator.unconstrained ~n:10 in
  List.iter
    (fun target ->
      match Generator.draw_with_target_us rng p ~target_us:target with
      | None -> Alcotest.failf "target %.1f should be reachable" target
      | Some ts ->
        let us = Rat.to_float (Taskset.system_utilization ts) in
        (* each task's exec rounds to a tick: error <= 0.5 tick / period *
           area <= 0.5/5000 * 100 = 0.01 per task *)
        let tolerance = 0.012 *. float_of_int (Taskset.size ts) in
        check_bool
          (Printf.sprintf "US %.3f within %.3f of target %.1f" us tolerance target)
          true
          (Float.abs (us -. target) <= tolerance);
        check_bool "profile satisfied" true (in_profile p ts))
    [ 5.0; 20.0; 50.0; 80.0 ]

let generator_unreachable_target () =
  let rng = Rng.create ~seed:13 in
  (* 2 tasks, areas <= 10, u <= 0.3: US can never reach 50 *)
  let p =
    { (Generator.unconstrained ~n:2) with Generator.area_hi = 10; Generator.util_hi = 0.3 }
  in
  check_bool "unreachable gives None" true
    (Generator.draw_with_target_us rng p ~target_us:50.0 = None);
  check_bool "max_reachable reflects it" true (Generator.max_reachable_us p < 50.0)

let generator_validation () =
  let bad = { (Generator.unconstrained ~n:4) with Generator.util_lo = 0.9; util_hi = 0.5 } in
  (match Generator.validate bad with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected invalid profile");
  Alcotest.check_raises "draw on invalid profile"
    (Invalid_argument "Generator: invalid utilization range") (fun () ->
      ignore (Generator.draw (Rng.create ~seed:1) bad))

let generator_deterministic () =
  let p = Generator.unconstrained ~n:5 in
  let a = Generator.draw (Rng.create ~seed:77) p in
  let b = Generator.draw (Rng.create ~seed:77) p in
  check_bool "same seed, same taskset" true (Taskset.equal a b)

let () =
  Alcotest.run "model"
    [
      ( "time",
        [
          Alcotest.test_case "decimal parsing" `Quick time_decimal;
          Alcotest.test_case "printing" `Quick time_strings;
          Alcotest.test_case "arithmetic" `Quick time_arith;
          Alcotest.test_case "decimal boundaries vs reference" `Quick time_decimal_boundaries;
          Alcotest.test_case "units range" `Quick time_units_range;
          prop_time_reference;
        ] );
      ( "task",
        [
          Alcotest.test_case "validation and utilizations" `Quick task_validation;
          Alcotest.test_case "constrained deadlines" `Quick constrained_deadlines;
        ] );
      ( "taskset",
        [
          Alcotest.test_case "aggregates" `Quick taskset_aggregates;
          Alcotest.test_case "hyperperiod" `Quick hyperperiod_cases;
          Alcotest.test_case "csv roundtrip" `Quick csv_roundtrip;
        ] );
      ( "generator",
        [
          Alcotest.test_case "respects profile" `Quick generator_respects_profile;
          Alcotest.test_case "hits target US" `Quick generator_hits_target;
          Alcotest.test_case "unreachable target" `Quick generator_unreachable_target;
          Alcotest.test_case "validation" `Quick generator_validation;
          Alcotest.test_case "deterministic" `Quick generator_deterministic;
        ] );
    ]
