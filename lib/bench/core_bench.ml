(* [redf bench-core]: the per-decide cost of each analyzer across
   taskset sizes and call modes, written as results/BENCH_core.json and
   gated against a committed baseline (CI's perf leg).

   Bechamel's OLS wants many iterations, which GN2's exact arithmetic
   makes prohibitive at N=256, so rows measure directly on the wall
   clock.  Every row has one stop rule: a warm-up call, so that the
   first call's cache misses stay out of the row, then calls until
   [min_time_s] has passed.  A microsecond row makes tens of thousands
   of calls; a GN2 row at N=256 makes one.

   This module lies outside check-src's determinism scope: wall clocks
   and the filesystem are its whole job.  The analyzers it measures
   stay inside. *)

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

(* DP, GN1 and GN2 *)
let batch_analyzers = Core.Analyzer.defaults

let single_analyzers =
  List.map
    (fun (a : Core.Analyzer.t) -> (a.name, fun ts -> ignore (Core.Analyzer.accepts a ~fpga_area ts)))
    batch_analyzers
  @ [
      ( "approx[1/10]",
        fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 10) ~fpga_area ts) );
      ( "approx[1/100]",
        fun ts -> ignore (Exact.Approx.analyze ~eps:(Rat.of_ints 1 100) ~fpga_area ts) );
    ]

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

let spec_key (s : spec) = (s.analyzer, s.n, s.mode)
let matrix () = List.map spec_key (specs ())

type row = { analyzer : string; n : int; mode : string; ns_per_decide : int }

let row_key (r : row) = (r.analyzer, r.n, r.mode)
let min_time_s = 0.2

let measure (spec : spec) =
  spec.iter ();
  let t0 = Unix.gettimeofday () in
  let rec go runs =
    spec.iter ();
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed < min_time_s then go (runs + 1) else (elapsed, runs + 1)
  in
  let elapsed, runs = go 0 in
  {
    analyzer = spec.analyzer;
    n = spec.n;
    mode = spec.mode;
    ns_per_decide =
      Float.to_int (Float.round (elapsed *. 1e9 /. float_of_int (runs * spec.decides_per_iter)));
  }

let collect ?only ?(progress = fun (_ : row) -> ()) () =
  List.filter_map
    (fun (spec : spec) ->
      match only with
      | Some keys when not (List.mem (spec_key spec) keys) -> None
      | _ ->
        let row = measure spec in
        progress row;
        Some row)
    (specs ())

(* --- BENCH_core.json --- *)

(* a v3 row may be a truncated one (0 ns, never measured), which v4
   has no flag for, so only v4 documents are read *)
let schema_version = 4

module Json = Wire.Json

(* fields in key order, so Json.to_string need not sort them *)
let row_json r =
  Json.Obj
    [
      ("analyzer", Json.String r.analyzer);
      ("mode", Json.String r.mode);
      ("n", Json.Int r.n);
      ("ns_per_decide", Json.Int r.ns_per_decide);
    ]

let core_doc rows =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "bench-core");
         ("results", Json.List (List.map row_json rows));
         ("schema_version", Json.Int schema_version);
         ("unit", Json.String "ns/decide");
       ])
  ^ "\n"

let ( let* ) = Result.bind

let get ctx key decode json =
  match Json.member key json with
  | Some v -> decode ~ctx:(ctx ^ key) v
  | None -> Error (ctx ^ key ^ ": missing")

let row_of_json i json =
  let ctx = Printf.sprintf "results[%d]." i in
  let* analyzer = get ctx "analyzer" Json.to_str json in
  let* n = get ctx "n" Json.to_int json in
  let* mode = get ctx "mode" Json.to_str json in
  let* ns_per_decide = get ctx "ns_per_decide" Json.to_int json in
  Ok { analyzer; n; mode; ns_per_decide }

let parse_core contents =
  let* doc = Json.of_string contents in
  let* version = get "" "schema_version" Json.to_int doc in
  if version <> schema_version then
    Error
      (Printf.sprintf "schema_version %d is not supported (this reader wants %d)" version
         schema_version)
  else
    let* results = get "" "results" Json.to_list doc in
    List.fold_right
      (fun row rows ->
        let* row = row in
        let* rows = rows in
        Ok (row :: rows))
      (List.mapi row_of_json results)
      (Ok [])

(* --- comparison against a committed baseline --- *)

(* micro-rows (tens of microseconds) jitter between machines and shared
   CI runners; a ratio gate alone would flag noise, so a regression
   also needs this much absolute slowdown *)
let ratio_limit = 1.5
let abs_slack_ns = 25_000

type verdict = Ok_row of float | Regressed of float | New_row
type compared = { row : row; baseline_ns : int option; verdict : verdict }

let compare_rows ~baseline current =
  List.map
    (fun cur ->
      match List.find_opt (fun b -> row_key b = row_key cur) baseline with
      | None -> { row = cur; baseline_ns = None; verdict = New_row }
      | Some b ->
        let ratio = float_of_int cur.ns_per_decide /. float_of_int b.ns_per_decide in
        let verdict =
          if ratio > ratio_limit && cur.ns_per_decide - b.ns_per_decide > abs_slack_ns then
            Regressed ratio
          else Ok_row ratio
        in
        { row = cur; baseline_ns = Some b.ns_per_decide; verdict })
    current

let regressions compared =
  List.filter (fun c -> match c.verdict with Regressed _ -> true | _ -> false) compared

let pretty_row r =
  Printf.sprintf "%-13s n=%-4d %-6s %14d ns/decide" r.analyzer r.n r.mode r.ns_per_decide

let pretty_compared c =
  let tail =
    match (c.verdict, c.baseline_ns) with
    | Ok_row ratio, Some b -> Printf.sprintf "  baseline %14d  x%.2f  ok" b ratio
    | Regressed ratio, Some b -> Printf.sprintf "  baseline %14d  x%.2f  REGRESSED" b ratio
    | New_row, _ | _, None -> "  (no baseline row)"
  in
  pretty_row c.row ^ tail

(* --- the verb --- *)

let default_out = "results/BENCH_core.json"

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let load_baseline = function
  | None -> Ok None
  | Some path ->
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "bench-core: baseline %s does not exist" path)
    else (
      match parse_core (In_channel.with_open_bin path In_channel.input_all) with
      | Ok rows -> Ok (Some rows)
      | Error msg -> Error (Printf.sprintf "bench-core: cannot parse %s: %s" path msg))

let progress r = Printf.printf "  %s\n%!" (pretty_row r)

(* a row that trips the gate is measured once more and the faster of
   its two runs kept: a shared runner's scheduling hiccup shows up in
   one run, a real regression in both *)
let retry_regressed ~baseline rows =
  match regressions (compare_rows ~baseline rows) with
  | [] -> rows
  | regressed ->
    Printf.printf "\n%d row(s) look regressed; re-measuring those rows once:\n%!"
      (List.length regressed);
    let reruns = collect ~only:(List.map (fun c -> row_key c.row) regressed) ~progress () in
    List.map
      (fun r ->
        match List.find_opt (fun r2 -> row_key r2 = row_key r) reruns with
        | Some r2 when r2.ns_per_decide < r.ns_per_decide -> r2
        | _ -> r)
      rows

let run ~out ~baseline =
  Printf.printf "analyzer cost matrix (ns/decide, seed-fixed workloads):\n%!";
  let rows = collect ~progress () in
  let rows = match baseline with None -> rows | Some baseline -> retry_regressed ~baseline rows in
  ensure_parent_dir out;
  Out_channel.with_open_bin out (fun oc -> output_string oc (core_doc rows));
  Printf.printf "  -> %s\n%!" out;
  match baseline with
  | None -> 0
  | Some baseline ->
    let compared = compare_rows ~baseline rows in
    Printf.printf "\nagainst baseline (tolerance %.2fx):\n" ratio_limit;
    List.iter (fun c -> Printf.printf "  %s\n" (pretty_compared c)) compared;
    let regressed = regressions compared in
    if regressed = [] then begin
      Printf.printf "\nno regressions.\n";
      0
    end
    else begin
      Printf.printf "\n%d row(s) regressed beyond %.2fx.\n" (List.length regressed) ratio_limit;
      1
    end
