[@@@redf.det]
[@@@redf.exact]

(* The admission daemon's durable state: the admitted taskset (in
   admission order, names unique), the mutation sequence number, and
   the request-id index that makes retried mutations idempotent: the
   replies of the last [window] mutations, and only id -> seq for the
   ids before them.

   Purely functional: Store applies acknowledged mutations to it, the
   chaos harness replays the same ops onto a reference copy, and the
   two must be equal — an equality that would be meaningless if state
   were a bag of mutables.

   Serialization is canonical JSON (Wire.Json sorts keys), with times
   as exact tick integers: a snapshot or journal record has exactly one
   byte representation for a given state, so recovery comparisons can
   be byte comparisons. *)

module Json = Wire.Json
module Ids = Map.Make (String)

(* (seq, rid) of the window's replies, oldest first: what expires next *)
module Recent = Set.Make (struct
  type t = int * string

  let compare (a, r) (b, s) = match Int.compare a b with 0 -> String.compare r s | c -> c
end)

type op = Add of Model.Task.t | Remove of string

type record = { seq : int; rid : string option; op : op; reply : string }

type t = {
  seq : int;  (* of the last applied mutation; 0 = pristine *)
  tasks : (string * Model.Task.t) list;  (* admission order *)
  window : int;  (* a reply is kept while its seq > seq - window *)
  replies : (int * string) Ids.t;  (* rid -> (seq, acknowledged reply), inside the window *)
  recent : Recent.t;  (* the same entries, by seq *)
  expired : int Ids.t;  (* rid -> seq, past the window *)
}

let empty =
  {
    seq = 0;
    tasks = [];
    window = max_int;
    replies = Ids.empty;
    recent = Recent.empty;
    expired = Ids.empty;
  }

let seq t = t.seq
let tasks t = List.map snd t.tasks
let names t = List.map fst t.tasks
let size t = List.length t.tasks
let mem t name = List.mem_assoc name t.tasks

type retry = Stored of string | Expired of int | Unknown

let lookup t rid =
  match Ids.find_opt rid t.replies with
  | Some (_, reply) -> Stored reply
  | None -> ( match Ids.find_opt rid t.expired with Some seq -> Expired seq | None -> Unknown)

let reply_for t rid = Option.map snd (Ids.find_opt rid t.replies)
let stored_replies t = Ids.cardinal t.replies
let expired_ids t = Ids.cardinal t.expired

(* the window is a setting, not state: two states that hold the same
   entries are equal whatever window each will keep from here on *)
let equal a b =
  a.seq = b.seq
  && List.length a.tasks = List.length b.tasks
  && List.for_all2
       (fun (na, ta) (nb, tb) -> na = nb && Model.Task.equal ta tb)
       a.tasks b.tasks
  && Ids.equal (fun (s, r) (s', r') -> s = s' && String.equal r r') a.replies b.replies
  && Ids.equal Int.equal a.expired b.expired

(* --- the window --- *)

(* move every reply whose seq left the window to the id -> seq index *)
let rec expire t =
  match Recent.min_elt_opt t.recent with
  | Some ((s, rid) as oldest) when s <= t.seq - t.window ->
    expire
      {
        t with
        replies = Ids.remove rid t.replies;
        recent = Recent.remove oldest t.recent;
        expired = Ids.add rid s t.expired;
      }
  | Some _ | None -> t

let with_dedup_window n t = expire { t with window = max 1 n }

(* an id stored again replaces what it had: the daemon never does this
   (a known id is answered, not applied), but a replay must not leave
   one id in two places *)
let remember rid seq reply t =
  let recent =
    match Ids.find_opt rid t.replies with
    | Some (s, _) -> Recent.remove (s, rid) t.recent
    | None -> t.recent
  in
  {
    t with
    replies = Ids.add rid (seq, reply) t.replies;
    recent = Recent.add (seq, rid) recent;
    expired = Ids.remove rid t.expired;
  }

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
        let applied = { applied with seq = r.seq } in
        expire
          (match r.rid with None -> applied | Some rid -> remember rid r.seq r.reply applied))
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

(* --- snapshot codec ---

   v2 (the one written): {"expired":[[rid,seq]…],"replies":[[rid,seq,reply]…],
   "seq":N,"tasks":[task…]}, entries in id order.  v1 (read only):
   {"replies":[[rid,reply]…],"seq":N,"tasks":[…]}; its replies carry no
   seq, so each counts as the snapshot's seq N, the last it can have. *)

let to_snapshot_json t =
  Json.Obj
    [
      ("seq", Json.Int t.seq);
      ("tasks", Json.List (List.map (fun (_, task) -> task_to_json task) t.tasks));
      ( "replies",
        Json.List
          (Ids.fold
             (fun rid (seq, reply) acc ->
               Json.List [ Json.String rid; Json.Int seq; Json.String reply ] :: acc)
             t.replies []
          |> List.rev) );
      ( "expired",
        Json.List
          (Ids.fold
             (fun rid seq acc -> Json.List [ Json.String rid; Json.Int seq ] :: acc)
             t.expired []
          |> List.rev) );
    ]

let to_snapshot_string t = Json.to_string (to_snapshot_json t)

(* [to_snapshot_string]'s bytes without its tree: the keys in the order
   [Json.to_string] sorts them into, and each element, an expired id, a
   reply entry or a task, handed on by [flush] as soon as it is
   written *)
let stream_snapshot t buf ~flush =
  let first = ref true in
  let entry rid seq reply =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_char buf '[';
    Json.add_string buf rid;
    Buffer.add_char buf ',';
    Json.add buf (Json.Int seq);
    Option.iter
      (fun reply ->
        Buffer.add_char buf ',';
        Json.add_string buf reply)
      reply;
    Buffer.add_char buf ']';
    flush ()
  in
  Buffer.add_string buf {|{"expired":[|};
  Ids.iter (fun rid seq -> entry rid seq None) t.expired;
  Buffer.add_string buf {|],"replies":[|};
  first := true;
  Ids.iter (fun rid (seq, reply) -> entry rid seq (Some reply)) t.replies;
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

(* Decoding reads the payload in one scan on Json's cursor, building no
   tree of it: each member is read into what the state keeps, an entry
   or a task at a time, and the diagnostics are those of a tree read,
   judged in the same order (seq, tasks, replies, expired) once the
   scan is done. *)

let bad_seq = "snapshot: \"seq\": expected a non-negative integer"
let bad_tasks = "snapshot: \"tasks\": expected an array"
let bad_replies = "snapshot: \"replies\": expected an array"
let bad_expired = "snapshot: \"expired\": expected an array"
let snapshot_keys = [ "expired"; "replies"; "seq"; "tasks" ]

let of_snapshot_string ?(version = 2) ?pos payload =
  let v1 = version = 1 in
  let seq = ref None and tasks = ref (Error bad_tasks) in
  let replies = ref (Error bad_replies) in
  let expired = ref (if v1 then Ok Ids.empty else Error bad_expired) in
  let seen = ref [] in
  (* an array read into [into], each entry (a small value of its own)
     kept by [add] or refused with [bad]; anything but an array leaves
     [into]'s error *)
  let entries c into ~bad add =
    if Json.peek c <> '[' then ignore (Json.value c)
    else
      into :=
        Json.fold_items c
          (fun acc ->
            let entry = Json.value c in
            match acc with Ok m -> Option.to_result ~none:bad (add entry m) | Error _ -> acc)
          (Ok Ids.empty)
  in
  let member c () key =
    if List.mem key !seen then ignore (Json.value c)
    else begin
      seen := key :: !seen;
      match key with
      | "seq" -> (
        match Json.peek c with
        | '-' | '0' .. '9' -> seq := Some (Json.int c)
        | _ -> ignore (Json.value c))
      | "tasks" ->
        if Json.peek c <> '[' then ignore (Json.value c)
        else
          tasks :=
            Json.fold_items c
              (fun acc ->
                let json = Json.value c in
                let* acc = acc in
                let* task = task_of_json json in
                Ok ((task.Model.Task.name, task) :: acc))
              (Ok [])
            |> Result.map List.rev
      | "replies" when v1 ->
        (* seq 0 until the snapshot's own seq is read, after the scan *)
        entries c replies ~bad:"snapshot: \"replies\": expected [rid, reply] string pairs"
          (fun entry m ->
            match entry with
            | Json.List [ Json.String rid; Json.String reply ] -> Some (Ids.add rid (0, reply) m)
            | _ -> None)
      | "replies" ->
        entries c replies ~bad:"snapshot: \"replies\": expected [rid, seq, reply] entries"
          (fun entry m ->
            match entry with
            | Json.List [ Json.String rid; Json.Int seq; Json.String reply ] ->
              Some (Ids.add rid (seq, reply) m)
            | _ -> None)
      | "expired" when not v1 ->
        entries c expired ~bad:"snapshot: \"expired\": expected [rid, seq] entries"
          (fun entry m ->
            match entry with
            | Json.List [ Json.String rid; Json.Int seq ] -> Some (Ids.add rid seq m)
            | _ -> None)
      | _ -> ignore (Json.value c)
    end
  in
  let scan c =
    if Json.peek c = '{' then Json.fold_members ~intern:snapshot_keys c (member c) ()
    else ignore (Json.value c)
  in
  match Json.decode ?pos payload scan with
  | Error msg -> Error ("snapshot: malformed JSON: " ^ msg)
  | Ok () ->
    let* seq = match !seq with Some n when n >= 0 -> Ok n | _ -> Error bad_seq in
    let* tasks = !tasks in
    let* replies = !replies in
    let* expired = !expired in
    let replies = if v1 then Ids.map (fun (_, reply) -> (seq, reply)) replies else replies in
    let recent = Ids.fold (fun rid (s, _) acc -> Recent.add (s, rid) acc) replies Recent.empty in
    Ok { seq; tasks; window = max_int; replies; recent; expired }
