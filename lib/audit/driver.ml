type report = {
  fpga_area : int;
  lint : Diagnostic.t list;
  findings : Consistency.finding list;
}

let lint_only ?hyperperiod_cap ~fpga_area ts =
  { fpga_area; lint = Lint.lint ?hyperperiod_cap ~fpga_area ts; findings = [] }

let run ?analyzers ?config ?jobs ~fpga_area ts =
  let config =
    match config with
    | None -> Consistency.default_config ~fpga_area
    | Some c ->
      if c.Consistency.fpga_area <> fpga_area then
        invalid_arg "Audit.Driver.run: config.fpga_area disagrees with ~fpga_area";
      c
  in
  {
    fpga_area;
    lint = Lint.lint ~hyperperiod_cap:config.Consistency.horizon_cap ~fpga_area ts;
    findings = Consistency.audit ?analyzers ?jobs config ts;
  }

let diagnostics r =
  Diagnostic.by_severity (r.lint @ List.map Consistency.to_diagnostic r.findings)

let clean ?strict r = Lint.clean ?strict (diagnostics r)
let exit_code ?strict r = if clean ?strict r then 0 else 2

let summary ~label r =
  let ds = diagnostics r in
  let errors = Diagnostic.count Diagnostic.Error ds in
  let warnings = Diagnostic.count Diagnostic.Warning ds in
  let infos = Diagnostic.count Diagnostic.Info ds in
  if errors = 0 && warnings = 0 && infos = 0 then label ^ ": clean"
  else
    Printf.sprintf "%s: %d error%s, %d warning%s, %d info%s" label errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      infos
      (if infos = 1 then "" else "s")

let pp ?(label = "audit") fmt r =
  Format.fprintf fmt "@[<v>%a%s@]" Diagnostic.pp_list (diagnostics r) (summary ~label r)

let diagnostic_json (d : Diagnostic.t) =
  let open Wire.Json in
  Obj
    ([
       ("severity", String (Diagnostic.severity_name d.severity));
       ("rule", String d.rule);
     ]
    @ (match d.task_index with Some i -> [ ("task", Int (i + 1)) ] | None -> [])
    @ [ ("message", String d.message) ])

let to_json ?(kind = "audit") ?file r =
  let open Wire.Json in
  Obj
    ([
       ("schema_version", Int Core.Verdict.schema_version);
       ("kind", String kind);
       ("fpga_area", Int r.fpga_area);
       ("clean", Bool (clean r));
       ("diagnostics", List (List.map diagnostic_json (diagnostics r)));
     ]
    @ match file with Some f -> [ ("file", String f) ] | None -> [])
