(* The admission daemon's request handling as it was before the daemon
   read its lines on Server.Protocol's task reader: a [Wire.Json.t]
   tree per line ([Json.of_string], then [Json.member] per field, the
   first occurrence of a key counting), tasks through [time_value] and
   [Model.Task.make], and [is_mutation] as a second parse of the line.
   Kept verbatim as the byte-identity reference of [Admit.Daemon]
   ([handle_line], [is_mutation]) in test_admit.ml's hostile-lines
   fuzz; it keeps its own store, cache and [Cache.Delta]. *)

module Json = Wire.Json
module Protocol = Server.Protocol
module Store = Admit.Store
module State = Admit.State

type t = {
  store : Store.t;
  cache : Cache.Verdicts.t;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  mutable delta : Cache.Delta.t;  (* mirrors Store.state's taskset *)
}

let ( let* ) = Result.bind

let create ?faults ?snapshot_every ?(cache_capacity = 4096) ~analyzer ~fpga_area ~dir () =
  let* store, recovery = Store.open_dir ?faults ?snapshot_every ~dir () in
  let delta = Cache.Delta.of_tasks (State.tasks (Store.state store)) in
  let cache = Cache.Verdicts.create ~metrics_prefix:"admit_cache" ~capacity:cache_capacity () in
  Ok ({ store; cache; analyzer; fpga_area; delta }, recovery)

let state t = Store.state t.store
let store t = t.store
let analyzer t = t.analyzer
let fpga_area t = t.fpga_area

(* --- verdict evaluation --- *)

(* None = empty taskset (trivially schedulable, no analyzer involved) *)
let decide t delta ~original =
  if Cache.Delta.size delta = 0 then None
  else
    let key = Cache.Delta.key delta ~analyzer:t.analyzer ~fpga_area:t.fpga_area in
    let canonical = Cache.Delta.canonical_taskset delta in
    let order = Cache.Delta.order delta ~original in
    Some
      (Cache.Verdicts.decide_canonical t.cache ~analyzer:t.analyzer ~fpga_area:t.fpga_area ~key
         ~canonical ~order)

let accepted = function None -> true | Some v -> Core.Verdict.accepted v

let verdict_fields t = function
  | Some v -> (
    match Core.Report.verdict_json t.analyzer v with Json.Obj fields -> fields | _ -> [])
  | None ->
    [
      ("analyzer_version", Json.String t.analyzer.Core.Analyzer.version);
      ("analyzer", Json.String t.analyzer.Core.Analyzer.name);
      ("accepted", Json.Bool true);
      ("checks", Json.List []);
      ("note", Json.String "empty taskset: trivially schedulable");
    ]

(* --- wire parsing --- *)

(* same time conventions as the analyze protocol (decimal string or
   integer units), but the daemon requires a unique, non-empty name:
   names are how tasks are removed and deduplicated *)
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

let time_field obj key =
  match time_value (Json.member key obj) with
  | Ok t -> Ok t
  | Error why -> Error (Printf.sprintf "task: %S: %s" key why)

let wire_task json =
  let* name =
    match Json.member "name" json with
    | Some (Json.String "") -> Error "task: \"name\": must be non-empty"
    | Some (Json.String s) -> Ok s
    | _ -> Error "task: \"name\": required (admission is by name)"
  in
  let* exec = time_field json "C" in
  let* deadline = time_field json "D" in
  let* period = time_field json "T" in
  let* area =
    match Json.member "A" json with
    | Some (Json.Int a) -> Ok a
    | _ -> Error "task: \"A\": expected an integer area"
  in
  match Model.Task.make ~name ~exec ~deadline ~period ~area () with
  | task -> Ok task
  | exception Invalid_argument msg -> Error (Printf.sprintf "task %S: %s" name msg)

(* mutation lines get priority headroom when the loop sheds load *)
let is_mutation line =
  match Json.of_string line with
  | Error _ -> false
  | Ok json -> (
    match Json.member "op" json with
    | Some (Json.String ("add-task" | "remove-task")) -> true
    | _ -> false)

(* --- handlers --- *)

let envelope ?id fields = Protocol.envelope ?id "admit" fields

let base_fields op st = [ ("op", Json.String op); ("seq", Json.Int (State.seq st)) ]

let dedup t id =
  match id with None -> None | Some id -> State.reply_for (state t) (Json.to_string id)

let handle_add t ~id json =
  match dedup t id with
  | Some stored -> stored
  | None -> (
    let attempt =
      let* task_json =
        match Json.member "task" json with
        | Some j -> Ok j
        | None -> Error "add-task: \"task\": missing"
      in
      let* task = wire_task task_json in
      let name = task.Model.Task.name in
      let st = state t in
      if State.mem st name then
        Error (Printf.sprintf "add-task: a task named %S is already admitted" name)
      else
        let candidate = Cache.Delta.add t.delta task in
        let original = State.names st @ [ name ] in
        let verdict = decide t candidate ~original in
        let fields = verdict_fields t verdict in
        if not (accepted verdict) then
          Ok
            (envelope ?id
               (( "admitted", Json.Bool false )
               :: base_fields "add-task" st
               @ [ ("tasks", Json.Int (State.size st)) ]
               @ fields))
        else
          let seq = State.seq st + 1 in
          let reply =
            envelope ?id
              (( "admitted", Json.Bool true )
              :: [ ("op", Json.String "add-task"); ("seq", Json.Int seq) ]
              @ [ ("tasks", Json.Int (State.size st + 1)) ]
              @ fields)
          in
          let record =
            {
              State.seq;
              rid = Option.map Json.to_string id;
              op = State.Add task;
              reply;
            }
          in
          let* () = Store.commit t.store record in
          t.delta <- candidate;
          Ok reply
    in
    match attempt with Ok reply -> reply | Error msg -> Protocol.error_response ?id msg)

let handle_remove t ~id json =
  match dedup t id with
  | Some stored -> stored
  | None -> (
    let attempt =
      let* name =
        match Json.member "name" json with
        | Some (Json.String s) -> Ok s
        | _ -> Error "remove-task: \"name\": expected a string"
      in
      let st = state t in
      if not (State.mem st name) then
        Error (Printf.sprintf "remove-task: no admitted task named %S" name)
      else
        let candidate = Cache.Delta.remove t.delta name in
        let original = List.filter (fun n -> n <> name) (State.names st) in
        let verdict = decide t candidate ~original in
        let seq = State.seq st + 1 in
        let reply =
          envelope ?id
            (( "admitted", Json.Bool true )
            :: [ ("op", Json.String "remove-task"); ("seq", Json.Int seq) ]
            @ [ ("tasks", Json.Int (State.size st - 1)) ]
            @ verdict_fields t verdict)
        in
        let record =
          { State.seq; rid = Option.map Json.to_string id; op = State.Remove name; reply }
        in
        let* () = Store.commit t.store record in
        t.delta <- candidate;
        Ok reply
    in
    match attempt with Ok reply -> reply | Error msg -> Protocol.error_response ?id msg)

let handle_query t ~id =
  let st = state t in
  let verdict = decide t t.delta ~original:(State.names st) in
  envelope ?id
    (base_fields "query" st
    @ [
        ("tasks", Json.Int (State.size st));
        ("names", Json.List (List.map (fun n -> Json.String n) (State.names st)));
      ]
    @ verdict_fields t verdict)

let handle_what_if t ~id json =
  let attempt =
    let* drops =
      match Json.member "drop" json with
      | None -> Ok []
      | Some (Json.List l) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match e with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error "what-if: \"drop\": expected an array of task names")
          (Ok []) l
        |> Result.map List.rev
      | Some _ -> Error "what-if: \"drop\": expected an array of task names"
    in
    let* adds =
      match Json.member "add" json with
      | None -> Ok []
      | Some (Json.List l) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* task = wire_task e in
            Ok (task :: acc))
          (Ok []) l
        |> Result.map List.rev
      | Some _ -> Error "what-if: \"add\": expected an array of tasks"
    in
    let st = state t in
    let* candidate, original =
      List.fold_left
        (fun acc name ->
          let* delta, names = acc in
          if not (Cache.Delta.mem delta name) then
            Error (Printf.sprintf "what-if: no admitted task named %S" name)
          else Ok (Cache.Delta.remove delta name, List.filter (fun n -> n <> name) names))
        (Ok (t.delta, State.names st))
        drops
    in
    let* candidate, original =
      List.fold_left
        (fun acc task ->
          let* delta, names = acc in
          let name = task.Model.Task.name in
          if Cache.Delta.mem delta name then
            Error (Printf.sprintf "what-if: a task named %S is already present" name)
          else Ok (Cache.Delta.add delta task, names @ [ name ]))
        (Ok (candidate, original))
        adds
    in
    let verdict = decide t candidate ~original in
    Ok
      (envelope ?id
         (base_fields "what-if" st
         @ [ ("tasks", Json.Int (Cache.Delta.size candidate)) ]
         @ verdict_fields t verdict))
  in
  match attempt with Ok reply -> reply | Error msg -> Protocol.error_response ?id msg

let handle_line t line =
  match Json.of_string line with
  | Error msg -> Protocol.error_response ("malformed JSON: " ^ msg)
  | Ok json -> (
    let id =
      match Json.member "id" json with
      | Some (Json.Int _ | Json.String _) as id -> id
      | Some _ | None -> None
    in
    match Json.member "op" json with
    | Some (Json.String "add-task") -> handle_add t ~id json
    | Some (Json.String "remove-task") -> handle_remove t ~id json
    | Some (Json.String "query") -> handle_query t ~id
    | Some (Json.String "what-if") -> handle_what_if t ~id json
    | Some (Json.String op) ->
      Protocol.error_response ?id
        (Printf.sprintf "unknown op %S (known: add-task, remove-task, query, what-if)" op)
    | Some _ | None -> Protocol.error_response ?id "\"op\": expected a string")

let handle_lines t lines = List.map (handle_line t) lines

let close t = Store.close t.store
