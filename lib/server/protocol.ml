module Json = Wire.Json
module Columns = Model.Taskset.Columns

type decoded = {
  id : Json.t option;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  columns : Columns.t;
}

type request = {
  id : Json.t option;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  taskset : Model.Taskset.t;
}

let ( let* ) = Result.bind

(* --- decoding --- *)

let not_decimal = "not a decimal time (at most 3 fractional digits)"
let out_of_range = "out of range"
let not_time = "expected a decimal string or an integer"

let decimal_reason = function
  | Model.Time.Malformed _ -> not_decimal
  | Model.Time.Out_of_range -> out_of_range

let time_value = function
  | None -> Error "missing"
  | Some (Json.String s) -> Result.map_error decimal_reason (Model.Time.decimal s)
  | Some (Json.Int n) -> (
    match Model.Time.of_units n with t -> Ok t | exception Invalid_argument _ -> Error out_of_range)
  | Some _ -> Error not_time

(* what the first occurrence of a key held: later occurrences are read
   and dropped, as [Json.member] returns the first *)
type 'a first = Absent | Bad of string | Got of 'a

let absent = function Absent -> true | Bad _ | Got _ -> false

let skip c why =
  ignore (Json.value c);
  Bad why

(* the task object being read: one per request, reset per task, so
   reading a field allocates nothing.  A time field's [why] is the
   reason it is rejected, "" once its ticks are valid *)
type task = {
  mutable seen : int;  (* bit [i] set at the first occurrence of key [i] of [task_keys] *)
  mutable name : string;
  mutable named : bool;  (* the first "name" was a string *)
  ticks : int array;  (* C, D, T *)
  why : string array;
  mutable area : int;
  mutable area_ok : bool;
}

let task_keys = [ "name"; "C"; "D"; "T"; "A" ]
let request_keys = [ "analyzer"; "fpga_area"; "id"; "tasks" ]

(* a key's index in [task_keys], -1 for any other; time field [f] is
   key [f + 1] *)
let task_field = function "name" -> 0 | "C" -> 1 | "D" -> 2 | "T" -> 3 | "A" -> 4 | _ -> -1
let time_key f = List.nth task_keys (f + 1)

let read_time c tk f =
  match Json.peek c with
  | '"' -> (
    match Model.Time.decimal (Json.string c) with
    | Ok t ->
      tk.ticks.(f) <- Model.Time.ticks t;
      tk.why.(f) <- ""
    | Error e -> tk.why.(f) <- decimal_reason e)
  | '-' | '0' .. '9' -> (
    match Model.Time.of_units (Json.int c) with
    | t ->
      tk.ticks.(f) <- Model.Time.ticks t;
      tk.why.(f) <- ""
    | exception Invalid_argument _ -> tk.why.(f) <- out_of_range)
  | _ ->
    ignore (Json.value c);
    tk.why.(f) <- not_time

let read_task_member c tk key =
  let f = task_field key in
  if f < 0 || tk.seen land (1 lsl f) <> 0 then ignore (Json.value c)
  else begin
    tk.seen <- tk.seen lor (1 lsl f);
    match f with
    | 0 ->
      if Json.peek c = '"' then begin
        tk.name <- Json.string c;
        tk.named <- true
      end
      else ignore (Json.value c)
    | 4 -> (
      match Json.peek c with
      | '-' | '0' .. '9' ->
        tk.area <- Json.int c;
        tk.area_ok <- true
      | _ -> ignore (Json.value c))
    | f -> read_time c tk (f - 1)
  end

(* the checks of the tree decoder, in its order: C, D, T, A, then
   [Task.make]'s *)
let rec time_error tk ~task f =
  if f = 3 then None
  else if tk.seen land (1 lsl (f + 1)) = 0 then Some (Printf.sprintf "task %d: %S: missing" task (time_key f))
  else if tk.why.(f) <> "" then Some (Printf.sprintf "task %d: %S: %s" task (time_key f) tk.why.(f))
  else time_error tk ~task (f + 1)

let task_error tk ~task =
  match time_error tk ~task 0 with
  | Some _ as e -> e
  | None -> (
    if not tk.area_ok then Some (Printf.sprintf "task %d: \"A\": expected an integer area" task)
    else
      let time f = Model.Time.of_ticks tk.ticks.(f) in
      match Model.Task.invalid ~exec:(time 0) ~deadline:(time 1) ~period:(time 2) ~area:tk.area with
      | Some msg -> Some (Printf.sprintf "task %d: %s" task msg)
      | None -> None)

(* the tasks read, newest first, as columns *)
let columns rev =
  let tasks = Array.of_list (List.rev rev) in
  let column f = Array.map f tasks in
  {
    Columns.n = Array.length tasks;
    exec = column (fun (_, c, _, _, _) -> c);
    deadline = column (fun (_, _, d, _, _) -> d);
    period = column (fun (_, _, _, t, _) -> t);
    area = column (fun (_, _, _, _, a) -> a);
    names = column (fun (name, _, _, _, _) -> name);
  }

(* One scan of the line: its syntax is checked to the end before any
   field is judged, so a syntax error anywhere wins with its offset;
   then the fields are checked in the order the tree decoder checked
   them (test/protocol_reference.ml). *)
let decode line =
  let analyzer = ref Absent and fpga_area = ref Absent and tasks = ref Absent and id = ref Absent in
  let read = ref [] and n = ref 0 in
  let tk =
    {
      seen = 0;
      name = "";
      named = false;
      ticks = Array.make 3 0;
      why = Array.make 3 "";
      area = 0;
      area_ok = false;
    }
  in
  (* the first rejected task stops the columns; the scan goes on *)
  let failed = ref None in
  let scan c =
    let member () key = read_task_member c tk key in
    let read_task () =
      tk.seen <- 0;
      tk.named <- false;
      tk.area_ok <- false;
      if Json.peek c = '{' then Json.fold_members ~intern:task_keys c member ()
      else ignore (Json.value c);
      if Option.is_none !failed then begin
        incr n;
        match task_error tk ~task:!n with
        | Some _ as e -> failed := e
        | None ->
          let name = if tk.named then tk.name else Printf.sprintf "t%d" !n in
          read := (name, tk.ticks.(0), tk.ticks.(1), tk.ticks.(2), tk.area) :: !read
      end
    in
    let read_member () key =
      match key with
      | "analyzer" when absent !analyzer ->
        analyzer := if Json.peek c = '"' then Got (Json.string c) else skip c "expected a string"
      | "fpga_area" when absent !fpga_area ->
        fpga_area :=
          (match Json.peek c with
           | '-' | '0' .. '9' -> Got (Json.int c)
           | _ -> skip c "expected an integer")
      | "id" when absent !id ->
        id :=
          (match Json.peek c with
           | '"' -> Got (Json.String (Json.string c))
           | '-' | '0' .. '9' -> Got (Json.Int (Json.int c))
           | _ -> skip c "")
      | "tasks" when absent !tasks ->
        tasks :=
          if Json.peek c = '[' then Got (Json.fold_items c read_task ()) else skip c "expected an array"
      | _ -> ignore (Json.value c)
    in
    if Json.peek c = '{' then begin
      Json.fold_members ~intern:request_keys c read_member ();
      true
    end
    else begin
      ignore (Json.value c);
      false
    end
  in
  match Json.decode line scan with
  | Error msg -> Error (None, "malformed JSON: " ^ msg)
  | Ok false -> Error (None, "request must be a JSON object")
  | Ok true ->
    let id = match !id with Got v -> Some v | Absent | Bad _ -> None in
    let field key = function
      | Got v -> Ok v
      | Absent -> Error (Printf.sprintf "%S: missing" key)
      | Bad why -> Error (Printf.sprintf "%S: %s" key why)
    in
    Result.map_error
      (fun msg -> (id, msg))
      (let* name = field "analyzer" !analyzer in
       let* analyzer = Core.Analyzer.of_name name in
       let* fpga_area = field "fpga_area" !fpga_area in
       let* () = if fpga_area >= 1 then Ok () else Error "\"fpga_area\": must be >= 1" in
       let* () = field "tasks" !tasks in
       let* () = match !failed with Some msg -> Error msg | None -> Ok () in
       if !n = 0 then Error "\"tasks\": must not be empty"
       else Ok { id; analyzer; fpga_area; columns = columns !read })

let parse line =
  Result.map
    (fun (d : decoded) ->
      {
        id = d.id;
        analyzer = d.analyzer;
        fpga_area = d.fpga_area;
        taskset = Columns.to_taskset d.columns;
      })
    (decode line)

(* --- responses --- *)

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

(* The bytes [envelope] prints for a verdict, written in key order from
   the rendered checks: accepted, analyzer, analyzer_version, checks,
   fpga_area, id, kind, schema_version. *)
let verdict_line ?id ~(analyzer : Core.Analyzer.t) ~fpga_area (r : Core.Verdict.Rendered.t) =
  let buf = Buffer.create (Array.fold_left (fun n s -> n + String.length s + 8) 160 r.checks) in
  Buffer.add_string buf
    (if r.accepted then {|{"accepted":true,"analyzer":|} else {|{"accepted":false,"analyzer":|});
  Json.add_string buf r.test_name;
  Buffer.add_string buf {|,"analyzer_version":|};
  Json.add_string buf analyzer.Core.Analyzer.version;
  Buffer.add_string buf {|,"checks":[|};
  Array.iteri
    (fun i check ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf check;
      Bignum.add_int buf (r.tasks.(i) + 1);
      Buffer.add_char buf '}')
    r.checks;
  Buffer.add_string buf {|],"fpga_area":|};
  Bignum.add_int buf fpga_area;
  (match id with
   | Some id ->
     Buffer.add_string buf {|,"id":|};
     Json.add buf id
   | None -> ());
  Buffer.add_string buf {|,"kind":"verdict","schema_version":|};
  Bignum.add_int buf schema_version;
  Buffer.add_char buf '}';
  Buffer.contents buf

let response (req : request) verdict =
  verdict_line ?id:req.id ~analyzer:req.analyzer ~fpga_area:req.fpga_area
    (Core.Verdict.Rendered.of_verdict verdict)

let error_response ?id msg = envelope ?id "error" [ ("error", Json.String msg) ]

let request_id line =
  match Json.of_string line with
  | Error _ -> None
  | Ok json -> (
    match Json.member "id" json with
    | Some (Json.Int _ | Json.String _) as id -> id
    | Some _ | None -> None)

let shed_message = "server overloaded: request shed"
let shed_response line = error_response ?id:(request_id line) shed_message

let request_line ~analyzer ~fpga_area ?id ts =
  let tasks = [ ("tasks", Json.List (List.map Core.Report.task_json (Model.Taskset.to_list ts))) ] in
  Json.to_string
    (Json.Obj
       (("analyzer", Json.String analyzer)
       :: ("fpga_area", Json.Int fpga_area)
       :: (match id with Some id -> ("id", id) :: tasks | None -> tasks)))
