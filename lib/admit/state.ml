[@@@redf.det]
[@@@redf.exact]

(* The admission daemon's durable state: the admitted taskset (in
   admission order, names unique), the mutation sequence number, and
   the request-id -> reply map that makes retried mutations idempotent.

   Purely functional: Store applies acknowledged mutations to it, the
   chaos harness replays the same ops onto a reference copy, and the
   two must be equal — an equality that would be meaningless if state
   were a bag of mutables.

   Serialization is canonical JSON (Wire.Json sorts keys), with times
   as exact tick integers: a snapshot or journal record has exactly one
   byte representation for a given state, so recovery comparisons can
   be byte comparisons. *)

module Json = Wire.Json
module Replies = Map.Make (String)

type op = Add of Model.Task.t | Remove of string

type record = { seq : int; rid : string option; op : op; reply : string }

type t = {
  seq : int;  (* of the last applied mutation; 0 = pristine *)
  tasks : (string * Model.Task.t) list;  (* admission order *)
  replies : string Replies.t;  (* rid -> acknowledged reply, for dedup *)
}

let empty = { seq = 0; tasks = []; replies = Replies.empty }
let seq t = t.seq
let tasks t = List.map snd t.tasks
let names t = List.map fst t.tasks
let size t = List.length t.tasks
let mem t name = List.mem_assoc name t.tasks
let reply_for t rid = Replies.find_opt rid t.replies

let equal a b =
  a.seq = b.seq
  && List.length a.tasks = List.length b.tasks
  && List.for_all2
       (fun (na, ta) (nb, tb) -> na = nb && Model.Task.equal ta tb)
       a.tasks b.tasks
  && Replies.equal String.equal a.replies b.replies

(* --- application --- *)

let apply_op t op =
  match op with
  | Add task ->
    let name = task.Model.Task.name in
    if name = "" then Error "add: task must be named"
    else if mem t name then Error (Printf.sprintf "add: duplicate task name %S" name)
    else Ok { t with tasks = t.tasks @ [ (name, task) ] }
  | Remove name ->
    if not (mem t name) then Error (Printf.sprintf "remove: no task named %S" name)
    else Ok { t with tasks = List.filter (fun (n, _) -> n <> name) t.tasks }

(* replaying a record past a snapshot that already contains it is a
   no-op (the crash window between snapshot rename and journal reset);
   a sequence gap means lost acknowledged history and is fatal *)
let apply_record t (r : record) =
  if r.seq <= t.seq then Ok t
  else if r.seq <> t.seq + 1 then
    Error (Printf.sprintf "journal sequence gap: at state seq %d, record seq %d" t.seq r.seq)
  else
    Result.map
      (fun applied ->
        let replies =
          match r.rid with
          | None -> applied.replies
          | Some rid -> Replies.add rid r.reply applied.replies
        in
        { applied with seq = r.seq; replies })
      (apply_op t r.op)

(* --- task codec (exact ticks; the journal's internal shape) --- *)

let task_to_json (task : Model.Task.t) =
  Json.Obj
    [
      ("name", Json.String task.Model.Task.name);
      ("C", Json.Int (Model.Time.ticks task.Model.Task.exec));
      ("D", Json.Int (Model.Time.ticks task.Model.Task.deadline));
      ("T", Json.Int (Model.Time.ticks task.Model.Task.period));
      ("A", Json.Int task.Model.Task.area);
    ]

let ( let* ) = Result.bind

let int_field json key =
  match Json.member key json with
  | Some (Json.Int n) -> Ok n
  | _ -> Error (Printf.sprintf "task: %S: expected an integer" key)

let task_of_json json =
  let* name =
    match Json.member "name" json with
    | Some (Json.String s) -> Ok s
    | _ -> Error "task: \"name\": expected a string"
  in
  let* c = int_field json "C" in
  let* d = int_field json "D" in
  let* p = int_field json "T" in
  let* a = int_field json "A" in
  match
    Model.Task.make ~name ~exec:(Model.Time.of_ticks c) ~deadline:(Model.Time.of_ticks d)
      ~period:(Model.Time.of_ticks p) ~area:a ()
  with
  | task -> Ok task
  | exception Invalid_argument msg -> Error (Printf.sprintf "task %S: %s" name msg)

(* --- record codec --- *)

let record_to_json r =
  let op_fields =
    match r.op with
    | Add task -> [ ("op", Json.String "add"); ("task", task_to_json task) ]
    | Remove name -> [ ("op", Json.String "remove"); ("name", Json.String name) ]
  in
  let rid_fields = match r.rid with None -> [] | Some rid -> [ ("rid", Json.String rid) ] in
  Json.Obj
    ((("seq", Json.Int r.seq) :: ("reply", Json.String r.reply) :: rid_fields) @ op_fields)

let record_of_json json =
  let* seq =
    match Json.member "seq" json with
    | Some (Json.Int n) when n >= 1 -> Ok n
    | _ -> Error "record: \"seq\": expected a positive integer"
  in
  let* reply =
    match Json.member "reply" json with
    | Some (Json.String s) -> Ok s
    | _ -> Error "record: \"reply\": expected a string"
  in
  let rid =
    match Json.member "rid" json with Some (Json.String s) -> Some s | _ -> None
  in
  let* op =
    match Json.member "op" json with
    | Some (Json.String "add") -> (
      match Json.member "task" json with
      | Some task_json -> Result.map (fun t -> Add t) (task_of_json task_json)
      | None -> Error "record: \"task\": missing")
    | Some (Json.String "remove") -> (
      match Json.member "name" json with
      | Some (Json.String n) -> Ok (Remove n)
      | _ -> Error "record: \"name\": expected a string")
    | _ -> Error "record: \"op\": expected \"add\" or \"remove\""
  in
  Ok { seq; rid; op; reply }

let record_of_string s =
  match Json.of_string s with
  | Error msg -> Error ("record: malformed JSON: " ^ msg)
  | Ok json -> record_of_json json

let record_to_string r = Json.to_string (record_to_json r)

(* --- snapshot codec --- *)

let to_snapshot_json t =
  Json.Obj
    [
      ("seq", Json.Int t.seq);
      ("tasks", Json.List (List.map (fun (_, task) -> task_to_json task) t.tasks));
      ( "replies",
        Json.List
          (Replies.fold
             (fun rid reply acc -> Json.List [ Json.String rid; Json.String reply ] :: acc)
             t.replies []
          |> List.rev) );
    ]

let of_snapshot_json json =
  let* seq =
    match Json.member "seq" json with
    | Some (Json.Int n) when n >= 0 -> Ok n
    | _ -> Error "snapshot: \"seq\": expected a non-negative integer"
  in
  let* task_objs =
    match Json.member "tasks" json with
    | Some (Json.List l) -> Ok l
    | _ -> Error "snapshot: \"tasks\": expected an array"
  in
  let* tasks =
    List.fold_left
      (fun acc tj ->
        let* acc = acc in
        let* task = task_of_json tj in
        Ok ((task.Model.Task.name, task) :: acc))
      (Ok []) task_objs
    |> Result.map List.rev
  in
  let* replies =
    match Json.member "replies" json with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc entry ->
          let* acc = acc in
          match entry with
          | Json.List [ Json.String rid; Json.String reply ] -> Ok (Replies.add rid reply acc)
          | _ -> Error "snapshot: \"replies\": expected [rid, reply] string pairs")
        (Ok Replies.empty) l
    | _ -> Error "snapshot: \"replies\": expected an array"
  in
  Ok { seq; tasks; replies }

let of_snapshot_string s =
  match Json.of_string s with
  | Error msg -> Error ("snapshot: malformed JSON: " ^ msg)
  | Ok json -> of_snapshot_json json

let to_snapshot_string t = Json.to_string (to_snapshot_json t)

(* [to_snapshot_string]'s bytes without its tree: the keys in the order
   [Json.to_string] sorts them into, and each element, a reply pair or
   a task, handed on by [flush] as soon as it is written *)
let stream_snapshot t buf ~flush =
  Buffer.add_string buf {|{"replies":[|};
  ignore
    (Replies.fold
       (fun rid reply first ->
         if not first then Buffer.add_char buf ',';
         Buffer.add_char buf '[';
         Json.add_string buf rid;
         Buffer.add_char buf ',';
         Json.add_string buf reply;
         Buffer.add_char buf ']';
         flush ();
         false)
       t.replies true);
  Buffer.add_string buf {|],"seq":|};
  Json.add buf (Json.Int t.seq);
  Buffer.add_string buf {|,"tasks":[|};
  List.iteri
    (fun i (_, task) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add buf (task_to_json task);
      flush ())
    t.tasks;
  Buffer.add_string buf "]}";
  flush ()
