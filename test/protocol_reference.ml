(* The service's request decoder and verdict writer as they were
   before the engine decoded lines into columns and cached rendered
   checks: a [Wire.Json.t] tree, then [Task.t] records; a verdict tree,
   then [Json.to_string].  Kept verbatim as the differential references
   of [Server.Protocol.decode]/[parse] and [verdict_line]/[response]
   (test_server.ml). *)

module Json = Wire.Json

type request = Server.Protocol.request = {
  id : Json.t option;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  taskset : Model.Taskset.t;
}

let ( let* ) = Result.bind

let time_value = function
  | None -> Error "missing"
  | Some (Json.String s) -> (
    match Model.Time.decimal s with
    | Ok t -> Ok t
    | Error (Model.Time.Malformed _) -> Error "not a decimal time (at most 3 fractional digits)"
    | Error Model.Time.Out_of_range -> Error "out of range")
  | Some (Json.Int n) -> (
    match Model.Time.of_units n with
    | t -> Ok t
    | exception Invalid_argument _ -> Error "out of range")
  | Some _ -> Error "expected a decimal string or an integer"

(* the context is formatted only when the field is rejected *)
let time_field obj key ~task =
  match time_value (Json.member key obj) with
  | Ok t -> Ok t
  | Error why -> Error (Printf.sprintf "task %d: %S: %s" task key why)

let parse_task i obj =
  let task = i + 1 in
  let name =
    match Json.member "name" obj with Some (Json.String s) -> s | _ -> Printf.sprintf "t%d" task
  in
  let* exec = time_field obj "C" ~task in
  let* deadline = time_field obj "D" ~task in
  let* period = time_field obj "T" ~task in
  let* area =
    match Json.member "A" obj with
    | Some (Json.Int a) -> Ok a
    | _ -> Error (Printf.sprintf "task %d: \"A\": expected an integer area" task)
  in
  match Model.Task.make ~name ~exec ~deadline ~period ~area () with
  | t -> Ok t
  | exception Invalid_argument msg -> Error (Printf.sprintf "task %d: %s" task msg)

let rec collect_tasks i acc = function
  | [] -> Ok (List.rev acc)
  | t :: rest ->
    let* task = parse_task i t in
    collect_tasks (i + 1) (task :: acc) rest

let parse line =
  match Json.of_string line with
  | Error msg -> Error (None, "malformed JSON: " ^ msg)
  | Ok json ->
    let id =
      match Json.member "id" json with
      | Some (Json.Int _ | Json.String _) as id -> id
      | Some _ | None -> None
    in
    let with_id r = Result.map_error (fun msg -> (id, msg)) r in
    with_id
      (let* () =
         match json with Json.Obj _ -> Ok () | _ -> Error "request must be a JSON object"
       in
       let* name =
         match Json.member "analyzer" json with
         | Some (Json.String s) -> Ok s
         | Some _ -> Error "\"analyzer\": expected a string"
         | None -> Error "\"analyzer\": missing"
       in
       let* analyzer = Core.Analyzer.of_name name in
       let* fpga_area =
         match Json.member "fpga_area" json with
         | Some (Json.Int a) when a >= 1 -> Ok a
         | Some (Json.Int _) -> Error "\"fpga_area\": must be >= 1"
         | Some _ -> Error "\"fpga_area\": expected an integer"
         | None -> Error "\"fpga_area\": missing"
       in
       let* task_objs =
         match Json.member "tasks" json with
         | Some (Json.List l) -> Ok l
         | Some _ -> Error "\"tasks\": expected an array"
         | None -> Error "\"tasks\": missing"
       in
       let* tasks = collect_tasks 0 [] task_objs in
       let* taskset =
         match Model.Taskset.of_list tasks with
         | ts -> Ok ts
         | exception Invalid_argument _ -> Error "\"tasks\": must not be empty"
       in
       Ok { id; analyzer; fpga_area; taskset })

let schema_version = Core.Verdict.schema_version

(* merge two key-ordered field lists; on a tie [base] goes first, as
   in the stable sort of [base @ fields] *)
let rec merge base fields =
  match (base, fields) with
  | [], l | l, [] -> l
  | ((k, _) as b) :: bs, ((k', _) as f) :: fs ->
    if String.compare k' k < 0 then f :: merge base fs else b :: merge bs fields

let envelope ?id kind fields =
  let base =
    [ ("kind", Json.String kind); ("schema_version", Json.Int schema_version) ]
  in
  let base = match id with Some id -> ("id", id) :: base | None -> base in
  Json.to_string (Json.Obj (merge base fields))

let response req verdict =
  let verdict_fields =
    match Core.Report.verdict_json req.analyzer verdict with Json.Obj f -> f | _ -> []
  in
  envelope ?id:req.id "verdict" (verdict_fields @ [ ("fpga_area", Json.Int req.fpga_area) ])
