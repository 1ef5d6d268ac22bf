(* Measurement core of [redf bench-core] and the offline harness: the
   per-decide cost of each analyzer across taskset sizes, in both call
   modes, against the committed baseline in results/BENCH_core.json.

   Bechamel's OLS wants many iterations, which GN2's exact arithmetic
   makes prohibitive at N=256, so rows measure directly: repeated
   decides on the wall clock until ~0.5 s or 64 runs, minimum one.
   A per-section --budget-ms can cut a row short (or skip it); such
   rows are flagged truncated and never participate in comparison. *)

let fpga_area = 100
let core_sizes = [ 8; 64; 256 ]

(* batch rows time decide_all over a pool of distinct tasksets; 16 is
   large enough to show any per-call cost it adds, small enough that
   one iteration stays near the single-row cost *)
let batch_width = 16
let batch_sizes = [ 8; 64 ]

let taskset_of_size ?(seed = 1234) n =
  let rng = Rng.create ~seed in
  Model.Generator.draw rng (Model.Generator.unconstrained ~n)

let single_analyzers =
  [
    ("DP", fun ts -> ignore (Core.Dp.accepts ~fpga_area ts));
    ("GN1", fun ts -> ignore (Core.Gn1.accepts ~fpga_area ts));
    ("GN2", fun ts -> ignore (Core.Gn2.accepts ~fpga_area ts));
    ( "approx[1/10]",
      fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 10) ~fpga_area ts) );
    ( "approx[1/100]",
      fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 100) ~fpga_area ts) );
  ]

let batch_analyzers = [ Core.Analyzer.dp; Core.Analyzer.gn1; Core.Analyzer.gn2 ]

(* wide rows: one fixed taskset whose times have 16 digits (periods of
   10^12 to 10^13 units on a one-tick grid), so every product of two
   ticks overflows an int and DP, GN1 and GN2 run over Bignum *)
let wide_n = 32

let wide_taskset () =
  let profile =
    { (Model.Generator.unconstrained ~n:wide_n) with period_lo = 1e12; period_hi = 1e13; period_grid = 1 }
  in
  Model.Generator.draw (Rng.create ~seed:1234) profile

(* the oracle is exponential in N (offset combinations), so its rows
   use crafted small integer tasksets with an explicit combination cap
   instead of the generated N sweep *)
let exact_sizes = [ 2; 3 ]

let exact_taskset n =
  let task c d t a = Model.Task.of_decimal ~exec:c ~deadline:d ~period:t ~area:a () in
  Model.Taskset.of_list
    (List.filteri
       (fun i _ -> i < n)
       [ task "1" "6" "6" 40; task "2" "8" "8" 50; task "1" "4" "4" 30 ])

let exact_decide ts =
  ignore (Exact.Oracle.decide ~max_combinations:20_000 ~fpga_area ~policy:Sim.Policy.edf_nf ts)

type spec = { analyzer : string; n : int; mode : string; decides_per_iter : int; iter : unit -> unit }

let specs () =
  let singles =
    List.concat_map
      (fun n ->
        let ts = taskset_of_size n in
        List.map
          (fun (name, f) ->
            { analyzer = name; n; mode = "single"; decides_per_iter = 1; iter = (fun () -> f ts) })
          single_analyzers)
      core_sizes
  in
  let batches =
    List.concat_map
      (fun n ->
        let tss = Array.init batch_width (fun i -> taskset_of_size ~seed:(1234 + i) n) in
        List.map
          (fun a ->
            {
              analyzer = a.Core.Analyzer.name;
              n;
              mode = "batch";
              decides_per_iter = batch_width;
              iter = (fun () -> ignore (a.Core.Analyzer.decide_all ~fpga_area tss));
            })
          batch_analyzers)
      batch_sizes
  in
  let wides =
    let ts = wide_taskset () in
    List.map
      (fun a ->
        {
          analyzer = a.Core.Analyzer.name;
          n = wide_n;
          mode = "wide";
          decides_per_iter = 1;
          iter = (fun () -> ignore (a.Core.Analyzer.decide ~fpga_area ts));
        })
      batch_analyzers
  in
  let exacts =
    List.map
      (fun n ->
        let ts = exact_taskset n in
        { analyzer = "exact"; n; mode = "single"; decides_per_iter = 1; iter = (fun () -> exact_decide ts) })
      exact_sizes
  in
  singles @ batches @ wides @ exacts

let measure ~budget spec =
  if not (Env.within budget) then
    (* skipped outright: record the row so the matrix shape is stable,
       but with no measurement behind it *)
    { Env.analyzer = spec.analyzer; n = spec.n; mode = spec.mode;
      ns_per_decide = 0; truncated = true }
  else begin
    let budget_s = 0.5 and max_runs = 64 in
    let t0 = Unix.gettimeofday () in
    let rec go runs =
      spec.iter ();
      let elapsed = Unix.gettimeofday () -. t0 in
      let runs = runs + 1 in
      let natural = elapsed >= budget_s || runs >= max_runs in
      if natural then (elapsed, runs, false)
      else if not (Env.within budget) then (elapsed, runs, true)
      else go runs
    in
    let elapsed, runs, cut = go 0 in
    {
      Env.analyzer = spec.analyzer;
      n = spec.n;
      mode = spec.mode;
      ns_per_decide =
        Float.to_int (Float.round (elapsed *. 1e9 /. float_of_int (runs * spec.decides_per_iter)));
      truncated = cut;
    }
  end

let collect ?budget_ms ?only ?(progress = fun (_ : Env.core_row) -> ()) () =
  let budget = Env.budget_of_ms budget_ms in
  let keep spec =
    match only with
    | None -> true
    | Some keys -> List.mem (spec.analyzer, spec.n, spec.mode) keys
  in
  List.filter_map
    (fun spec ->
      if not (keep spec) then None
      else begin
        let row = measure ~budget spec in
        progress row;
        Some row
      end)
    (specs ())

(* --- comparison against a committed baseline --- *)

let parse_tolerance s =
  let body =
    let l = String.length s in
    if l > 0 && (s.[l - 1] = 'x' || s.[l - 1] = 'X') then String.sub s 0 (l - 1) else s
  in
  match float_of_string_opt body with
  | Some f when f >= 1.0 -> Ok f
  | Some _ -> Error (Printf.sprintf "tolerance %S is below 1.0" s)
  | None -> Error (Printf.sprintf "cannot parse tolerance %S (want e.g. 1.5x)" s)

(* micro-rows (tens of microseconds) jitter wildly between machines and
   shared CI runners; a ratio gate alone would flag noise, so a
   regression additionally needs this much absolute slowdown *)
let abs_slack_ns = 25_000

type verdict = Ok_row of float | Regressed of float | New_row | Skipped_truncated

type compared = { row : Env.core_row; baseline_ns : int option; verdict : verdict }

let compare_rows ~tolerance ~baseline current =
  let key r = (r.Env.analyzer, r.Env.n, r.Env.mode) in
  List.map
    (fun cur ->
      let base = List.find_opt (fun b -> key b = key cur) baseline in
      let baseline_ns = Option.map (fun b -> b.Env.ns_per_decide) base in
      let verdict =
        match base with
        | None -> New_row
        | Some b ->
          if cur.Env.truncated || b.Env.truncated || b.Env.ns_per_decide <= 0 then
            Skipped_truncated
          else begin
            let ratio = float_of_int cur.Env.ns_per_decide /. float_of_int b.Env.ns_per_decide in
            if ratio > tolerance && cur.Env.ns_per_decide - b.Env.ns_per_decide > abs_slack_ns
            then Regressed ratio
            else Ok_row ratio
          end
      in
      { row = cur; baseline_ns; verdict })
    current

let regressions compared =
  List.filter (fun c -> match c.verdict with Regressed _ -> true | _ -> false) compared

let pretty_row r =
  Printf.sprintf "%-13s n=%-4d %-6s %14d ns/decide%s" r.Env.analyzer r.Env.n r.Env.mode
    r.Env.ns_per_decide
    (if r.Env.truncated then "  [truncated]" else "")

let pretty_compared c =
  let tail =
    match (c.verdict, c.baseline_ns) with
    | Ok_row ratio, Some b -> Printf.sprintf "  baseline %14d  x%.2f  ok" b ratio
    | Regressed ratio, Some b -> Printf.sprintf "  baseline %14d  x%.2f  REGRESSED" b ratio
    | New_row, _ -> "  (no baseline row)"
    | Skipped_truncated, _ -> "  (truncated; not compared)"
    | _, None -> ""
  in
  pretty_row c.row ^ tail
