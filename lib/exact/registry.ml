[@@@redf.det]
[@@@redf.exact]

module Time = Model.Time
module Taskset = Model.Taskset

let wider_note = "a task is wider than the FPGA"

(* the oracle runs on the canonical taskset and its checks are remapped
   through the canonical order, as the cache remaps a hit: a fresh
   verdict is byte-for-byte the cached one, for any task order *)
let exact_verdict ~name ~policy ~fpga_area ts =
  if not (Taskset.fits ts ~fpga_area) then
    Core.Verdict.reject_all ~test_name:name ~note:wider_note ts
  else begin
    let order = Cache.Canonical.order ts in
    let canon = Cache.Canonical.apply order ts in
    let conclusion = Oracle.decide ~jobs:1 ~fpga_area ~policy canon in
    let miss_note what (miss : Sim.Engine.miss) p =
      if p = miss.Sim.Engine.task_index then
        Printf.sprintf "deadline miss at t=%s %s (canonical task %d)"
          (Time.to_string miss.Sim.Engine.at) what miss.Sim.Engine.task_index
      else
        Printf.sprintf "no miss attributed to this task (canonical task %d missed at t=%s)"
          miss.Sim.Engine.task_index
          (Time.to_string miss.Sim.Engine.at)
    in
    let check p =
      match conclusion with
      | Oracle.Schedulable (Oracle.All_offsets { combinations; grid }) ->
        ( true,
          Printf.sprintf
            "exact: no deadline miss for any of %d first-release offset assignments on the %s \
             grid over [0, O_max + 2H)"
            combinations (Time.to_string grid) )
      | Oracle.Schedulable (Oracle.Synchronous_only { reason }) ->
        (true, Printf.sprintf "exact for the synchronous release (offset search skipped: %s)" reason)
      | Oracle.Unschedulable (Oracle.Wider_than_device { amax }) ->
        (false, Printf.sprintf "%s (amax = %d)" wider_note amax)
      | Oracle.Unschedulable (Oracle.Infeasible violations) ->
        ( false,
          Printf.sprintf "infeasible: %d necessary-condition violation(s), see the nec analyzer"
            (List.length violations) )
      | Oracle.Unschedulable (Oracle.Sync_miss miss) ->
        (p <> miss.Sim.Engine.task_index, miss_note "under the synchronous release" miss p)
      | Oracle.Unschedulable (Oracle.Offset_miss { offsets; miss }) ->
        ( p <> miss.Sim.Engine.task_index,
          miss_note
            (Printf.sprintf "with first-release offsets (%s)"
               (String.concat ", " (List.map Time.to_string offsets)))
            miss p )
      | Oracle.Inconclusive { reason } -> (false, Printf.sprintf "inconclusive: %s" reason)
    in
    let checks =
      List.init (Taskset.size ts) (fun p ->
          let satisfied, note = check p in
          { Core.Verdict.task_index = p; satisfied; lhs = Rat.zero; rhs = Rat.zero; note })
    in
    Core.Verdict.remap order (Core.Verdict.make ~test_name:name ~checks)
  end

let cite = "Goossens & Meumeu Yomsi; Section 6's exact-test remark"

let exact_nf =
  Core.Analyzer.make ~name:"exact" ~cite ~version:"1" (fun ~fpga_area ts ->
      exact_verdict ~name:"exact" ~policy:Sim.Policy.edf_nf ~fpga_area ts)

let exact_fkf =
  Core.Analyzer.make ~name:"exact-fkf" ~cite ~version:"1" (fun ~fpga_area ts ->
      exact_verdict ~name:"exact-fkf" ~policy:Sim.Policy.edf_fkf ~fpga_area ts)

let approx_name eps = "approx[" ^ Rat.to_string eps ^ "]"

let approx_with eps =
  if Rat.sign eps <= 0 then invalid_arg "Registry.approx_with: eps must be positive";
  let name = approx_name eps in
  Core.Analyzer.make ~name
    ~cite:"Albers & Slomka, approximate feasibility (area-weighted necessary variant)"
    ~version:"1"
    (fun ~fpga_area ts -> Approx.verdict ~eps ~name ~fpga_area ts)

let parse_eps body =
  match String.index_opt body '/' with
  | Some i -> (
    let n = String.sub body 0 i in
    let d = String.sub body (i + 1) (String.length body - i - 1) in
    match (int_of_string_opt n, int_of_string_opt d) with
    | Some n, Some d when d <> 0 -> Ok (Rat.of_ints n d)
    | _ -> Error (Printf.sprintf "approx: malformed eps %S (want N/D or a decimal)" body))
  | None -> (
    try Ok (Rat.of_decimal_string body)
    with Invalid_argument _ ->
      Error (Printf.sprintf "approx: malformed eps %S (want N/D or a decimal)" body))

(* [target] arrives trimmed and lower-cased from Core.Analyzer.of_name *)
let parse_approx target =
  if target = "approx" then Some (Ok (approx_with Approx.default_eps))
  else
    let n = String.length target in
    if n > 8 && String.sub target 0 7 = "approx[" && target.[n - 1] = ']' then
      match parse_eps (String.sub target 7 (n - 8)) with
      | Error _ as e -> Some e
      | Ok eps ->
        if Rat.sign eps <= 0 then
          Some (Error (Printf.sprintf "approx: eps must be positive, got %s" (Rat.to_string eps)))
        else Some (Ok (approx_with eps))
    else None

let ensure () =
  Core.Analyzer.register exact_nf;
  Core.Analyzer.register exact_fkf;
  Core.Analyzer.register (approx_with Approx.default_eps);
  Core.Analyzer.register_parser ~syntax:"approx[EPS]" parse_approx
