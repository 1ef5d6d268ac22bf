[@@@redf.det]

(* The admission daemon; its protocol and policy are in daemon.mli.

   Each line is decoded once, in one scan on Server.Protocol's task
   reader, so admit and serve agree on what a task is and why it is
   malformed; test/admit_reference.ml keeps the tree decoder this
   replaced, and the tests hold the replies to its bytes.

   Verdicts always come from {!Cache.Verdicts} via the incremental
   {!Cache.Delta} key — byte-identical to a from-scratch analyzer run
   by the cache's contract, which the chaos harness re-checks against
   [analyzer.decide] directly.  The cache holds serve's rendered form,
   and every success reply is written straight into one buffer around
   the stored check fragments, so a cache hit prints no rational and
   builds no JSON tree.

   Handlers are serial by design: mutations order the journal, and the
   event loop ([Server.Loop]) batches lines through {!handle_lines} on
   one domain. *)

module Json = Wire.Json
module Protocol = Server.Protocol
module Rendered = Core.Verdict.Rendered

type t = {
  store : Store.t;
  cache : Cache.Verdicts.rendered;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  mutable delta : Cache.Delta.t;  (* mirrors Store.state's taskset *)
  reply : Buffer.t;  (* each reply is written here, then copied out *)
}

let ( let* ) = Result.bind

let create ?faults ?snapshot_every ?(cache_capacity = 4096) ~analyzer ~fpga_area ~dir () =
  let* store, recovery = Store.open_dir ?faults ?snapshot_every ~dir () in
  let delta = Cache.Delta.of_tasks (State.tasks (Store.state store)) in
  let cache =
    Cache.Verdicts.create_rendered ~metrics_prefix:"admit_cache" ~capacity:cache_capacity ()
  in
  Ok ({ store; cache; analyzer; fpga_area; delta; reply = Buffer.create 4096 }, recovery)

let state t = Store.state t.store
let store t = t.store

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

let accepted = function None -> true | Some (r : Rendered.t) -> r.accepted

(* --- wire decoding --- *)

(* a request line, each field read into what its handler checks: the
   value, or the error it gives when absent or malformed *)
type request = {
  mutable op : string option;
  mutable id : Json.t option;
  mutable task : (Model.Task.t, string) result;
  mutable name : (string, string) result;
  mutable add : (Model.Task.t list, string) result;
  mutable drop : (string list, string) result;
}

(* a task as the serve protocol reads it (Protocol's task reader), but
   the daemon requires a non-empty name, checked first: names are how
   tasks are removed and deduplicated *)
let read_task tk =
  Protocol.read_task tk;
  match Protocol.task_name tk with
  | None -> Error "task: \"name\": required (admission is by name)"
  | Some "" -> Error "task: \"name\": must be non-empty"
  | Some name -> (
    match Protocol.task tk ~name with
    | Ok task -> Ok task
    | Error (Protocol.Field why) -> Error ("task: " ^ why)
    | Error (Protocol.Invalid msg) -> Error (Printf.sprintf "task %S: %s" name msg))

let bad_name = "remove-task: \"name\": expected a string"
let bad_add = "what-if: \"add\": expected an array of tasks"
let bad_drop = "what-if: \"drop\": expected an array of task names"
let request_keys = [ "op"; "id"; "task"; "name"; "add"; "drop" ]

(* One scan of the line, building no tree of it (a value no field
   wants goes to [Json.value]): a syntax error anywhere is the line's
   error, and the first occurrence of a key counts.  The handlers judge
   the fields: the dedup lookup before the task, [drop] before [add]. *)
let decode line =
  let r =
    {
      op = None;
      id = None;
      task = Error "add-task: \"task\": missing";
      name = Error bad_name;
      add = Ok [];
      drop = Ok [];
    }
  in
  let seen = ref [] in
  let scan c =
    let tk = Protocol.task_reader c in
    let string () =
      if Json.peek c = '"' then Some (Json.string c)
      else begin
        ignore (Json.value c);
        None
      end
    in
    (* an array whose first rejected element is its error *)
    let array read ~bad =
      if Json.peek c <> '[' then begin
        ignore (Json.value c);
        Error bad
      end
      else
        Json.fold_items c
          (fun acc ->
            match (acc, read ()) with
            | Ok l, Ok x -> Ok (x :: l)
            | Ok _, (Error _ as e) | (Error _ as e), _ -> e)
          (Ok [])
        |> Result.map List.rev
    in
    let member () key =
      if List.mem key !seen then ignore (Json.value c)
      else begin
        seen := key :: !seen;
        match key with
        | "op" -> r.op <- string ()
        | "id" -> r.id <- Protocol.read_id c
        | "task" -> r.task <- read_task tk
        | "name" -> r.name <- Option.to_result ~none:bad_name (string ())
        | "add" -> r.add <- array (fun () -> read_task tk) ~bad:bad_add
        | "drop" ->
          r.drop <- array (fun () -> Option.to_result ~none:bad_drop (string ())) ~bad:bad_drop
        | _ -> ignore (Json.value c)
      end
    in
    if Json.peek c = '{' then Json.fold_members ~intern:request_keys c member ()
    else ignore (Json.value c)
  in
  Result.map (fun () -> r) (Json.decode line scan)

(* mutation lines get priority headroom when the loop sheds load *)
let is_mutation line =
  match decode line with
  | Ok { op = Some ("add-task" | "remove-task"); _ } -> true
  | Ok _ | Error _ -> false

(* --- replies --- *)

(* A success reply, written in the key order [Json.to_string] sorts an
   envelope into: accepted, admitted (mutations), analyzer,
   analyzer_version, checks, id, kind, names (query), note (the empty
   set), op, schema_version, seq, tasks.  The empty set's verdict names
   the analyzer and has no checks. *)
let reply t ?id ?admitted ?names ~op ~seq ~tasks verdict =
  let buf = t.reply in
  let add = Buffer.add_string buf and add_json = Json.add buf in
  Buffer.clear buf;
  let r =
    Option.value verdict
      ~default:{ Rendered.accepted = true; test_name = t.analyzer.name; tasks = [||]; checks = [||] }
  in
  add (if r.accepted then {|{"accepted":true,|} else {|{"accepted":false,|});
  Option.iter (fun a -> add (if a then {|"admitted":true,|} else {|"admitted":false,|})) admitted;
  Protocol.add_verdict buf ~analyzer:t.analyzer r;
  Option.iter (fun id -> add {|,"id":|}; add_json id) id;
  add {|,"kind":"admit"|};
  Option.iter
    (fun names ->
      add {|,"names":|};
      add_json (Json.List (List.map (fun n -> Json.String n) names)))
    names;
  if Option.is_none verdict then add {|,"note":"empty taskset: trivially schedulable"|};
  add {|,"op":|};
  add_json (Json.String op);
  add {|,"schema_version":|};
  add_json (Json.Int Core.Verdict.schema_version);
  add {|,"seq":|};
  add_json (Json.Int seq);
  add {|,"tasks":|};
  add_json (Json.Int tasks);
  add "}";
  Buffer.contents buf

(* --- handlers --- *)

let dedup t id =
  match id with None -> None | Some id -> State.reply_for (state t) (Json.to_string id)

let answer ?id = function Ok reply -> reply | Error msg -> Protocol.error_response ?id msg

(* a retried mutation id gets its journaled reply back, unapplied *)
let mutation t ~id attempt =
  match dedup t id with Some stored -> stored | None -> answer ?id (attempt ())

(* journal an admitted mutation with its reply, then apply it *)
let commit t ~id op ~candidate ~tasks verdict =
  let seq = State.seq (state t) + 1 in
  let name = match op with State.Add _ -> "add-task" | State.Remove _ -> "remove-task" in
  let reply = reply t ?id ~admitted:true ~op:name ~seq ~tasks verdict in
  let* () = Store.commit t.store { State.seq; rid = Option.map Json.to_string id; op; reply } in
  t.delta <- candidate;
  Ok reply

let handle_add t ~id task =
  mutation t ~id @@ fun () ->
  let* task = task in
  let name = task.Model.Task.name in
  let st = state t in
  if State.mem st name then
    Error (Printf.sprintf "add-task: a task named %S is already admitted" name)
  else
    let candidate = Cache.Delta.add t.delta task in
    let verdict = decide t candidate ~original:(State.names st @ [ name ]) in
    if accepted verdict then
      commit t ~id (State.Add task) ~candidate ~tasks:(State.size st + 1) verdict
    else
      Ok
        (reply t ?id ~admitted:false ~op:"add-task" ~seq:(State.seq st) ~tasks:(State.size st)
           verdict)

let handle_remove t ~id name =
  mutation t ~id @@ fun () ->
  let* name = name in
  let st = state t in
  if not (State.mem st name) then
    Error (Printf.sprintf "remove-task: no admitted task named %S" name)
  else
    let candidate = Cache.Delta.remove t.delta name in
    let original = List.filter (fun n -> n <> name) (State.names st) in
    commit t ~id (State.Remove name) ~candidate ~tasks:(State.size st - 1)
      (decide t candidate ~original)

let handle_query t ~id =
  let st = state t in
  let names = State.names st in
  reply t ?id ~names ~op:"query" ~seq:(State.seq st) ~tasks:(State.size st)
    (decide t t.delta ~original:names)

let handle_what_if t ~id ~add ~drop =
  let attempt =
    let* drops = drop in
    let* adds = add in
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
    Ok
      (reply t ?id ~op:"what-if" ~seq:(State.seq st) ~tasks:(Cache.Delta.size candidate)
         (decide t candidate ~original))
  in
  answer ?id attempt

let handle_line t line =
  match decode line with
  | Error msg -> Protocol.error_response ("malformed JSON: " ^ msg)
  | Ok r -> (
    let id = r.id in
    match r.op with
    | Some "add-task" -> handle_add t ~id r.task
    | Some "remove-task" -> handle_remove t ~id r.name
    | Some "query" -> handle_query t ~id
    | Some "what-if" -> handle_what_if t ~id ~add:r.add ~drop:r.drop
    | Some op ->
      Protocol.error_response ?id
        (Printf.sprintf "unknown op %S (known: add-task, remove-task, query, what-if)" op)
    | None -> Protocol.error_response ?id "\"op\": expected a string")

let handle_lines t lines = Array.map (handle_line t) lines

let close t = Store.close t.store
