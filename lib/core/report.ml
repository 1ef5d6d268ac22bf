type t = {
  fpga_area : int;
  analyzers : Analyzer.t list;
  taskset : Model.Taskset.t;
  verdicts : Verdict.t list;
  time_utilization : Rat.t;
  system_utilization : Rat.t;
}

let run ?(analyzers = Analyzer.defaults) ~fpga_area ts =
  {
    fpga_area;
    analyzers;
    taskset = ts;
    verdicts = List.map (fun (a : Analyzer.t) -> a.Analyzer.decide ~fpga_area ts) analyzers;
    time_utilization = Model.Taskset.time_utilization ts;
    system_utilization = Model.Taskset.system_utilization ts;
  }

let summary_line t =
  String.concat " "
    (List.map
       (fun (v : Verdict.t) ->
         Printf.sprintf "%s:%s" v.Verdict.test_name (if Verdict.accepted v then "ACCEPT" else "REJECT"))
       t.verdicts)

let pp fmt t =
  Format.fprintf fmt "@[<v>FPGA area A(H) = %d@,taskset: %a@,UT = %a (%a)  US = %a (%a)@,"
    t.fpga_area Model.Taskset.pp t.taskset Rat.pp t.time_utilization Rat.pp_approx
    t.time_utilization Rat.pp t.system_utilization Rat.pp_approx t.system_utilization;
  List.iter (fun v -> Format.fprintf fmt "%a@," Verdict.pp v) t.verdicts;
  Format.fprintf fmt "@]"

(* --- machine-readable form --- *)

module Json = Wire.Json

(* objects are built in key order, so Json.to_string need not sort *)
let task_json (task : Model.Task.t) =
  Json.Obj
    [
      ("A", Json.Int task.Model.Task.area);
      ("C", Json.String (Model.Time.to_string task.Model.Task.exec));
      ("D", Json.String (Model.Time.to_string task.Model.Task.deadline));
      ("T", Json.String (Model.Time.to_string task.Model.Task.period));
      ("name", Json.String task.Model.Task.name);
    ]

let verdict_json (a : Analyzer.t) v = Verdict.to_json ~version:a.Analyzer.version v

let to_json t =
  Json.Obj
    [
      ("fpga_area", Json.Int t.fpga_area);
      ("kind", Json.String "report");
      ("schema_version", Json.Int Verdict.schema_version);
      ("system_utilization", Json.String (Rat.to_string t.system_utilization));
      ("tasks", Json.List (List.map task_json (Model.Taskset.to_list t.taskset)));
      ("time_utilization", Json.String (Rat.to_string t.time_utilization));
      ("verdicts", Json.List (List.map2 verdict_json t.analyzers t.verdicts));
    ]
