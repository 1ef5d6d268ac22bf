(* The columnar/batch contract of this repo's analyzer core:
   Model.Taskset.Columns round-trips losslessly, and every int-tick,
   columnar or batch decide prints byte-for-byte what the
   exact-rational reference prints — same verdicts, same notes, same
   JSON — on random tasksets (constrained and unconstrained deadlines,
   tasks wider than the device, duplicated and permuted sets), at
   numeric extremes where the native-int arithmetic overflows, and
   under scaling of every time.

   Byte identity, not structural equality: the serve/batch front ends
   and the verdict cache both promise cached == fresh == batch at the
   byte level, so these properties pin the strongest visible form. *)

module Columns = Model.Taskset.Columns
module Time = Model.Time
module Ref = Analyzer_reference

(* deadlines both below and above the period, so GN2's d<=t / d>t
   branches and GN1's carry-in clamping all get exercised *)
let task_gen =
  QCheck2.Gen.(
    let* t_units = int_range 2 10 in
    let* d_units = int_range 1 12 in
    let period = Time.of_units t_units in
    let deadline = Time.of_units d_units in
    let c_cap = min (Time.ticks period) (Time.ticks deadline) in
    let* c_ticks = int_range 1 c_cap in
    let* area = int_range 1 12 in
    return (Model.Task.make ~exec:(Time.of_ticks c_ticks) ~deadline ~period ~area ()))

let taskset_of_tasks tasks = QCheck2.Gen.(shuffle_l tasks >|= Model.Taskset.of_list)

let taskset_gen = QCheck2.Gen.(list_size (int_range 1 7) task_gen >>= taskset_of_tasks)

(* device narrow enough that some drawn tasks exceed it (reject_all
   path) and wide enough that full analyses run too *)
let area_gen = QCheck2.Gen.int_range 6 16

let case_gen = QCheck2.Gen.pair taskset_gen area_gen

let verdict_bytes v =
  Format.asprintf "%a" Core.Verdict.pp v ^ "\x00" ^ Wire.Json.to_string (Core.Verdict.to_json v)

let qtest = Core_helpers.qtest

(* each analyzer against the exact-rational reference it replaced *)
let analyzers =
  [
    ("DP", Core.Dp.decide, Ref.Dp.decide_reference);
    ( "DP-original",
      Core.Dp.decide_original,
      Ref.Dp.decide_general ~test_name:"DP-original" ~plus_one:false );
    ("GN1", Core.Gn1.decide, Ref.Gn1.decide_reference);
    ( "GN1-printed",
      Core.Gn1.decide_printed,
      Ref.Gn1.decide_general ~test_name:"GN1-printed" ~lemma3_form:false );
    ("GN2", Core.Gn2.decide, Ref.Gn2.decide_reference);
  ]

(* the verdict bytes and the core.gn2.lambda_evals count of one decide *)
let lambda_evals = Obs.Counter.make "core.gn2.lambda_evals"

let counted decide ~fpga_area ts =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let before = Obs.Counter.value lambda_evals in
      let bytes = verdict_bytes (decide ~fpga_area ts) in
      (bytes, Obs.Counter.value lambda_evals - before))

let same_as ~analyzers (ts, fpga_area) =
  List.for_all
    (fun (_, decide, reference) -> counted decide ~fpga_area ts = counted reference ~fpga_area ts)
    analyzers

let same_as_reference = same_as ~analyzers

(* --- Columns round-trip --- *)

let prop_columns_roundtrip =
  qtest ~count:500 "Columns.to_taskset (of_taskset ts) = ts" taskset_gen (fun ts ->
      Model.Taskset.equal (Columns.to_taskset (Columns.of_taskset ts)) ts)

(* --- int-tick decide == exact-rational reference, byte for byte --- *)

let bytes_ident name decide reference =
  qtest ~count:400
    (Printf.sprintf "%s: columnar decide == reference bytes" name)
    case_gen
    (fun (ts, fpga_area) ->
      String.equal (verdict_bytes (decide ~fpga_area ts)) (verdict_bytes (reference ~fpga_area ts)))

let prop_dp_ident = bytes_ident "DP" Core.Dp.decide Ref.Dp.decide_reference
let prop_gn1_ident = bytes_ident "GN1" Core.Gn1.decide Ref.Gn1.decide_reference
let prop_gn2_ident = bytes_ident "GN2" Core.Gn2.decide Ref.Gn2.decide_reference

(* GN2's walk stops at the first accepting lambda; the exhaustive
   reference evaluates every candidate.  Verdict bytes must not notice. *)
let prop_gn2_pruning =
  bytes_ident "GN2 pruned vs exhaustive" Core.Gn2.decide Ref.Gn2.decide_exhaustive

(* the exact-rational event sweep the int walk replaced *)
let prop_gn2_sweep = bytes_ident "GN2 vs event sweep" Core.Gn2.decide Ref.Gn2.decide_sweep

let prop_variants_counted =
  qtest ~count:300 "every analyzer: bytes and lambda_evals == reference" case_gen same_as_reference

(* --- numeric extremes: the overflow paths --- *)

(* ticks from one to max_int: whole units up to max_int / 1000, values
   around 2^31 and 2^40 (where products of two or three ticks leave
   the int range), and small ones *)
let tick_gen =
  QCheck2.Gen.(
    let around b = int_range (b - 64) (b + 64) in
    oneof
      [
        int_range 1 20_000;
        around (1 lsl 31);
        around (1 lsl 40);
        int_range 1 (max_int / 1000) >|= ( * ) 1000;
        int_range 1 max_int;
      ])

(* any C, D and T: C > D, D > T and C > T all occur *)
let extreme_task_gen ~area =
  QCheck2.Gen.(
    let* c = tick_gen and* d = tick_gen and* t = tick_gen in
    let* t = frequency [ (3, return t); (1, return d) ] in
    let* area = area in
    return
      (Model.Task.make ~exec:(Time.of_ticks c) ~deadline:(Time.of_ticks d) ~period:(Time.of_ticks t)
         ~area ()))

let extreme_case_gen ~n =
  QCheck2.Gen.(
    let* fpga_area = int_range 1 16 in
    (* sometimes every task has one width (Amin = Amax), sometimes a
       task is wider than the device *)
    let* same = int_range 1 (fpga_area + 1) and* uniform = bool in
    let area = if uniform then return same else int_range 1 (fpga_area + 2) in
    let* tasks = list_size n (extreme_task_gen ~area) in
    let* ts = taskset_of_tasks tasks in
    return (ts, fpga_area))

let prop_extremes =
  qtest ~count:300 "extreme ticks: bytes and lambda_evals == reference"
    (extreme_case_gen ~n:(QCheck2.Gen.int_range 1 5))
    same_as_reference

let prop_single_task =
  qtest ~count:200 "N = 1: bytes and lambda_evals == reference"
    (extreme_case_gen ~n:(QCheck2.Gen.return 1))
    same_as_reference

(* a few wide tasksets; GN2 is checked against the event sweep, whose
   O(N^2 log N) exact-rational work stays affordable at this size *)
let prop_wide_sets =
  let analyzers =
    List.map
      (fun ((name, decide, _) as a) -> if name = "GN2" then (name, decide, Ref.Gn2.decide_sweep) else a)
      analyzers
  in
  qtest ~count:3 "N = 32-64: bytes and lambda_evals == reference"
    QCheck2.Gen.(
      let* n = int_range 32 64 in
      let* tasks = list_size (return n) task_gen in
      let* ts = taskset_of_tasks tasks in
      let* fpga_area = int_range 12 40 in
      return (ts, fpga_area))
    (same_as ~analyzers)

(* the 16-digit tasksets of Core_helpers: every product of two of their
   ticks overflows an int, so each decide that reaches the arithmetic
   (all but DP on the constrained set, which it rejects up front) can
   only have come from the Bignum instance *)
let sixteen_digit = Core_helpers.sixteen_digit
let sixteen_digit_constrained = Core_helpers.sixteen_digit_constrained

let wide_instance () =
  let ticks = List.map (fun t -> Time.ticks t.Model.Task.period) (Model.Taskset.to_list sixteen_digit) in
  List.iter
    (fun x ->
      Alcotest.check_raises "a product of two ticks overflows" Core.Ticks.Overflow (fun () ->
          ignore (Core.Ticks.Checked.mul x x)))
    ticks;
  List.iter
    (fun ts ->
      List.iter
        (fun (name, decide, reference) ->
          let got = counted decide ~fpga_area:10 ts and want = counted reference ~fpga_area:10 ts in
          Alcotest.(check (pair string int)) name want got)
        analyzers)
    [ sixteen_digit; sixteen_digit_constrained ]

(* GN2 decides each condition from floor sums, and exactly only when
   they leave it open (R - c < S < R): rare in random sets.  In each of
   these, found by search, the walk meets such a candidate; the exact
   sum settles it as true in the first and as false in the others. *)
let band_cases =
  [
    ( Core_helpers.taskset
        [
          ("t0", "1.5", "12.5", "4.5", 1);
          ("t1", "1.5", "6", "6", 7);
          ("t2", "1.5", "6.5", "6.5", 5);
          ("t3", "0.5", "4", "9.5", 1);
          ("t4", "0.5", "1", "9.5", 4);
        ],
      11 );
    (Core_helpers.taskset [ ("t0", "1", "13", "3", 4); ("t1", "2", "9", "9", 3); ("t2", "2", "5", "5", 4) ], 7);
    ( Core_helpers.taskset
        [ ("t0", "2", "3", "6", 2); ("t1", "2", "5", "5", 1); ("t2", "8", "10", "10", 3); ("t3", "2", "14", "6", 1) ],
      8 );
  ]

let exact_band () =
  List.iter
    (fun (ts, fpga_area) ->
      List.iter
        (fun (name, decide, reference) ->
          Alcotest.(check (pair string int)) name (counted reference ~fpga_area ts) (counted decide ~fpga_area ts))
        analyzers)
    band_cases

(* --- time scaling --- *)

(* every bound is a ratio of times, so multiplying every C, D and T by
   the same k must not change a byte; this guards the int paths'
   reduction of lambda = p/q and their common denominators *)
let scale k ts =
  Model.Taskset.of_list
    (List.map
       (fun (task : Model.Task.t) ->
         let by x = Time.of_ticks (Time.ticks x * k) in
         { task with exec = by task.exec; deadline = by task.deadline; period = by task.period })
       (Model.Taskset.to_list ts))

let prop_time_scaling =
  qtest ~count:300 "scaling every time by 2, 7 or 1000 keeps every verdict byte"
    QCheck2.Gen.(triple taskset_gen area_gen (oneofl [ 2; 7; 1000 ]))
    (fun (ts, fpga_area, k) ->
      List.for_all
        (fun (_, decide, _) ->
          String.equal (verdict_bytes (decide ~fpga_area ts)) (verdict_bytes (decide ~fpga_area (scale k ts))))
        analyzers)

(* --- the range check: the plain-int path and the exact paths agree
   on both sides of every bound --- *)

type path = Native | Wide

let path_counters = [ (Native, Obs.Counter.make "core.ticks.native"); (Wide, Obs.Counter.make "core.ticks.wide") ]

(* [counted]'s bytes and lambda_evals, and the path that finished the
   decide (None when it was rejected before any arithmetic) *)
let observed decide ~fpga_area ts =
  let before = List.map (fun (_, m) -> Obs.Counter.value m) path_counters in
  let seen = counted decide ~fpga_area ts in
  let path =
    List.fold_left2
      (fun acc (p, m) b -> if Obs.Counter.value m > b then Some p else acc)
      None path_counters before
  in
  (seen, path)

(* the largest k in [0, kmax] with [native k], for a predicate that
   holds up to some k and fails above it; kmax may be max_int *)
let threshold native kmax =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if native mid then go mid hi else go lo mid
    end
  in
  if native kmax then kmax else go 0 kmax

(* every A_i and A(H) times j *)
let scale_areas j (ts, fpga_area) =
  ( Model.Taskset.of_list
      (List.map (fun (task : Model.Task.t) -> { task with area = task.area * j }) (Model.Taskset.to_list ts)),
    fpga_area * j )

(* [case_gen]'s sets, sets whose C, D and T are any ticks up to 20
   units (C > D and C > T included, and C up to 20000 T), or sets of
   up to 12 tasks whose ticks are all 1 or 2, where a bound's area
   terms outweigh its tick terms; half of the draws have implicit
   deadlines, so DP reaches its arithmetic too *)
let free_task ~c ~d ~t ~area =
  QCheck2.Gen.(
    let* c = c and* d = d and* t = t and* area = area in
    return (Model.Task.make ~exec:(Time.of_ticks c) ~deadline:(Time.of_ticks d) ~period:(Time.of_ticks t) ~area ()))

let tiny_tick = QCheck2.Gen.int_range 1 2

let ranged_case_gen =
  QCheck2.Gen.(
    let free_case n task = pair (list_size (int_range 1 n) task >>= taskset_of_tasks) area_gen in
    let tick = int_range 1 20_000 and area = int_range 1 12 in
    let* ts, fpga_area =
      frequency
        [
          (2, case_gen);
          (1, free_case 7 (free_task ~c:tick ~d:tick ~t:(frequency [ (2, tick); (1, int_range 1 20) ]) ~area));
          (1, free_case 12 (free_task ~c:tiny_tick ~d:tiny_tick ~t:tiny_tick ~area));
        ]
    and* implicit = bool in
    let implicit_deadlines ts =
      Model.Taskset.of_list
        (List.map (fun (task : Model.Task.t) -> { task with deadline = task.period }) (Model.Taskset.to_list ts))
    in
    return ((if implicit then implicit_deadlines ts else ts), fpga_area))

(* [ranged_case_gen]'s sets, or 6 to 12 tasks as wide as the device
   with ticks 1 or 2, whose sum of the A_i outweighs A(H) as much as
   that: GN1's lhs numerator then leaves the int range where A(H) L
   does not.  Every area and A(H) is scaled by one j, so that the area
   terms cross the int range as well as the ticks: the largest j at
   which every area fits an int, a j drawn between 2 and that, or the
   least j at which the sum of the A_i reaches 2^63, where a plain-int
   sum of the scaled areas wraps to nearly 0 *)
let area_scaled_case_gen =
  QCheck2.Gen.(
    let crowd =
      let* fpga_area = area_gen in
      list_size (int_range 6 12) (free_task ~c:tiny_tick ~d:tiny_tick ~t:tiny_tick ~area:(return fpga_area))
      >>= taskset_of_tasks
      >|= fun ts -> (ts, fpga_area)
    in
    let* ts, fpga_area = frequency [ (3, ranged_case_gen); (1, crowd) ]
    and* area_scale =
      frequency [ (1, return `Largest); (1, int_range 1 60 >|= fun s -> `Shift s); (2, return `Wrap) ]
    in
    let area = (Columns.of_taskset ts).area in
    let largest = max_int / max fpga_area (Array.fold_left max 0 area) in
    let j =
      match area_scale with
      | `Largest -> largest
      | `Shift s -> max 2 (largest lsr s)
      | `Wrap ->
        (* (max_int / W + 1) W >= 2^62 for W = sum A_i *)
        let w = Array.fold_left ( + ) 0 area in
        min largest (2 * ((max_int / w) + 1))
    in
    return (scale_areas j (ts, fpga_area)))

(* Every time scaled by k: the bounds grow with k, so each analyzer
   takes its plain-int path up to a threshold k* and not above it.
   At k*/2, k*, k* + 1 and the largest k whose ticks fit an int the
   bytes and lambda_evals equal the reference's, and the path is
   native exactly up to k*.  [tally] counts the paths met. *)
let agree_across_bounds ~tally (ts, fpga_area) =
  let kmax = max_int / Core.Ticks.max_tick (Columns.of_taskset ts) in
  List.for_all
    (fun (name, decide, reference) ->
      let native k = snd (observed decide ~fpga_area (scale k ts)) = Some Native in
      let k_star = threshold native kmax in
      let scales =
        List.sort_uniq Int.compare
          (List.filter (fun k -> k >= 1 && k <= kmax) [ max 1 (k_star / 2); k_star; k_star + 1; kmax ])
      in
      List.for_all
        (fun k ->
          let ts = scale k ts in
          let seen, path = observed decide ~fpga_area ts in
          tally name path;
          seen = counted reference ~fpga_area ts && path = Some Native = (k <= k_star))
        scales)
    analyzers

let range_check () =
  let met = Hashtbl.create 8 in
  let tally name path =
    match path with
    | Some p -> Hashtbl.replace met (name, p = Native) ()
    | None -> ()
  in
  List.iter
    (fun (name, gen) ->
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 31 |])
        (QCheck2.Test.make ~count:100 ~name
           ~print:(fun (ts, fpga_area) -> Format.asprintf "%a on A(H) = %d" Model.Taskset.pp ts fpga_area)
           gen (agree_across_bounds ~tally)))
    [
      ("plain-int and exact paths agree across each bound", ranged_case_gen);
      ("... and with every area scaled toward the int range", area_scaled_case_gen);
    ];
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check bool) (name ^ ": a native decide") true (Hashtbl.mem met (name, true));
      Alcotest.(check bool) (name ^ ": a wide decide") true (Hashtbl.mem met (name, false)))
    analyzers

(* serve-miss's request stream (perfbench): fresh tasksets of 4-8
   tasks from the unconstrained generator on A(H) = 100.  DP's, GN1's
   and GN2's bounds hold on every one, so each decide takes the
   plain-int path *)
let serve_miss_native () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 300 do
    let profile = Model.Generator.unconstrained ~n:(Rng.int_incl rng 4 8) in
    let ts = Model.Generator.draw rng { profile with Model.Generator.fpga_area = 100 } in
    List.iter
      (fun (name, decide) ->
        let _, path = observed decide ~fpga_area:100 ts in
        if path <> Some Native then Alcotest.failf "%s left the plain-int path on %a" name Model.Taskset.pp ts)
      [ ("DP", Core.Dp.decide); ("GN1", Core.Gn1.decide); ("GN2", Core.Gn2.decide) ]
  done

(* --- approx's h(t) (Core.Dbf): plain ints == Bignum --- *)

let prop_approx_demand =
  qtest ~count:500 "approx: area_demand_cols == area_demand"
    QCheck2.Gen.(pair taskset_gen (int_range 0 30))
    (fun (ts, at_units) ->
      let cols = Columns.of_taskset ts and at_ticks = Time.ticks (Time.of_units at_units) in
      Bignum.equal (Bignum.of_int (Core.Dbf.demand_native cols ~at_ticks)) (Core.Dbf.demand cols ~at_ticks))

(* --- Analyzer.decide_all == mapping decide --- *)

let tasksets_gen = QCheck2.Gen.(array_size (int_range 0 5) taskset_gen)

let prop_decide_all_ident =
  qtest ~count:150 "Analyzer.decide_all == Array.map decide (all defaults)"
    QCheck2.Gen.(pair tasksets_gen area_gen)
    (fun (tss, fpga_area) ->
      List.for_all
        (fun (a : Core.Analyzer.t) ->
          let batch = Array.map verdict_bytes (a.decide_all ~fpga_area tss) in
          let one_by_one = Array.map (fun ts -> verdict_bytes (a.decide ~fpga_area ts)) tss in
          batch = one_by_one)
        Core.Analyzer.defaults)

(* --- Cache.Verdicts.decide_all == fresh decides, hits included --- *)

(* the batch deliberately contains duplicates (same taskset twice) so
   the miss-dedup path runs, and a second pass serves pure hits *)
let prop_cache_batch_ident =
  qtest ~count:100 "Verdicts.decide_all == fresh, duplicates and hits included"
    QCheck2.Gen.(pair (pair taskset_gen tasksets_gen) area_gen)
    (fun ((dup, tss), fpga_area) ->
      let tss = Array.concat [ [| dup |]; tss; [| dup |] ] in
      let cache = Cache.Verdicts.create ~capacity:64 () in
      let analyzer = Core.Analyzer.gn2 in
      let fresh = Array.map (fun ts -> verdict_bytes (analyzer.decide ~fpga_area ts)) tss in
      let first =
        Array.map verdict_bytes (Cache.Verdicts.decide_all cache ~analyzer ~fpga_area tss)
      in
      let second =
        Array.map verdict_bytes (Cache.Verdicts.decide_all cache ~analyzer ~fpga_area tss)
      in
      first = fresh && second = fresh)

let () =
  Alcotest.run "columns"
    [
      ("round-trip", [ prop_columns_roundtrip ]);
      ( "columnar == record bytes",
        [
          prop_dp_ident;
          prop_gn1_ident;
          prop_gn2_ident;
          prop_gn2_pruning;
          prop_gn2_sweep;
          prop_variants_counted;
          prop_approx_demand;
        ] );
      ( "numeric extremes",
        [
          prop_extremes;
          prop_single_task;
          prop_wide_sets;
          Alcotest.test_case "16-digit times run the Bignum instance" `Quick wide_instance;
          Alcotest.test_case "GN2 conditions settled in the exact band" `Quick exact_band;
        ] );
      ("time scaling", [ prop_time_scaling ]);
      ( "range check",
        [
          Alcotest.test_case "plain-int and exact paths agree across each bound" `Quick range_check;
          Alcotest.test_case "GN2 decides serve-miss's stream in plain ints, as do DP and GN1" `Quick
            serve_miss_native;
        ] );
      ("batch == single bytes", [ prop_decide_all_ident; prop_cache_batch_ident ]);
    ]
