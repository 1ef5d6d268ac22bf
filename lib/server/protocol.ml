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

(* --- the task reader, shared with the admission daemon --- *)

(* a task object being read at a cursor: one per request line, reset
   per task, so reading a field allocates nothing.  A time field's
   [why] is the reason it is rejected, "" once its ticks are valid *)
type task_reader = {
  c : Json.cursor;
  mutable seen : int;  (* bit [i] set at the first occurrence of key [i] of [task_keys] *)
  mutable name : string;
  mutable named : bool;  (* the first "name" was a string *)
  ticks : int array;  (* C, D, T *)
  why : string array;
  mutable area : int;
  mutable area_ok : bool;
}

let task_reader c =
  let ticks = Array.make 3 0 and why = Array.make 3 "" in
  { c; seen = 0; name = ""; named = false; ticks; why; area = 0; area_ok = false }

let task_keys = [ "name"; "C"; "D"; "T"; "A" ]

(* a key's index in [task_keys], -1 for any other; time field [f] is
   key [f + 1] *)
let task_field = function "name" -> 0 | "C" -> 1 | "D" -> 2 | "T" -> 3 | "A" -> 4 | _ -> -1
let time_key f = List.nth task_keys (f + 1)

let read_time tk f =
  let c = tk.c in
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

let read_task_member tk key =
  let c = tk.c in
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
    | f -> read_time tk (f - 1)
  end;
  tk

let read_task tk =
  tk.seen <- 0;
  tk.named <- false;
  tk.area_ok <- false;
  if Json.peek tk.c = '{' then ignore (Json.fold_members ~intern:task_keys tk.c read_task_member tk)
  else ignore (Json.value tk.c)

let task_name tk = if tk.named then Some tk.name else None

type task_error = Field of string | Invalid of string

(* C, D, T, A, then [Task.make]'s checks: the order of the tree decoder
   (test/protocol_reference.ml) *)
let rec time_error tk f =
  if f = 3 then None
  else
    let why = if tk.seen land (1 lsl (f + 1)) = 0 then "missing" else tk.why.(f) in
    if why = "" then time_error tk (f + 1) else Some (Field (Printf.sprintf "%S: %s" (time_key f) why))

let exec tk = Model.Time.of_ticks tk.ticks.(0)
let deadline tk = Model.Time.of_ticks tk.ticks.(1)
let period tk = Model.Time.of_ticks tk.ticks.(2)

let task_error tk =
  match time_error tk 0 with
  | Some _ as e -> e
  | None when not tk.area_ok -> Some (Field "\"A\": expected an integer area")
  | None ->
    Option.map
      (fun msg -> Invalid msg)
      (Model.Task.invalid ~exec:(exec tk) ~deadline:(deadline tk) ~period:(period tk) ~area:tk.area)

let task tk ~name =
  match task_error tk with
  | Some e -> Error e
  | None ->
    Ok (Model.Task.make ~name ~exec:(exec tk) ~deadline:(deadline tk) ~period:(period tk) ~area:tk.area ())

let read_id c =
  match Json.peek c with
  | '"' -> Some (Json.String (Json.string c))
  | '-' | '0' .. '9' -> Some (Json.Int (Json.int c))
  | _ ->
    ignore (Json.value c);
    None

(* --- requests --- *)

(* what the first occurrence of a key held: later occurrences are read
   and dropped, as [Json.member] returns the first *)
type 'a first = Absent | Bad of string | Got of 'a

let absent = function Absent -> true | Bad _ | Got _ -> false

let skip c why =
  ignore (Json.value c);
  Bad why

let request_keys = [ "analyzer"; "fpga_area"; "id"; "tasks" ]

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
  let analyzer = ref Absent and fpga_area = ref Absent and tasks = ref Absent in
  let id = ref None and id_seen = ref false in
  let read = ref [] and n = ref 0 in
  (* the first rejected task stops the columns; the scan goes on *)
  let failed = ref None in
  let scan c =
    let tk = task_reader c in
    let read_task () =
      read_task tk;
      if Option.is_none !failed then begin
        incr n;
        match task_error tk with
        | Some (Field why | Invalid why) -> failed := Some (Printf.sprintf "task %d: %s" !n why)
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
      | "id" when not !id_seen ->
        id_seen := true;
        id := read_id c
      | "tasks" when absent !tasks ->
        tasks :=
          if Json.peek c = '[' then Got (Json.fold_items c read_task ())
          else skip c "expected an array"
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
    let id = !id in
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

(* The members every success reply carries for its verdict, in key
   order: analyzer, analyzer_version, checks.  Serve's verdict line and
   the admission daemon's replies both write them here, from the
   rendered checks. *)
let add_verdict buf ~(analyzer : Core.Analyzer.t) (r : Core.Verdict.Rendered.t) =
  Buffer.add_string buf {|"analyzer":|};
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
  Buffer.add_char buf ']'

(* The bytes [envelope] prints for a verdict, written in key order:
   accepted, analyzer, analyzer_version, checks, fpga_area, id, kind,
   schema_version. *)
let verdict_line ?id ~analyzer ~fpga_area (r : Core.Verdict.Rendered.t) =
  let buf = Buffer.create (Array.fold_left (fun n s -> n + String.length s + 8) 160 r.checks) in
  Buffer.add_string buf (if r.accepted then {|{"accepted":true,|} else {|{"accepted":false,|});
  add_verdict buf ~analyzer r;
  Buffer.add_string buf {|,"fpga_area":|};
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

(* a well-formed object's id comes back with its verdict or its error *)
let request_id line = match decode line with Ok { id; _ } | Error (id, _) -> id

let shed_message = "server overloaded: request shed"
let shed_response line = error_response ?id:(request_id line) shed_message

let request_line ~analyzer ~fpga_area ?id ts =
  let tasks = [ ("tasks", Json.List (List.map Core.Report.task_json (Model.Taskset.to_list ts))) ] in
  Json.to_string
    (Json.Obj
       (("analyzer", Json.String analyzer)
       :: ("fpga_area", Json.Int fpga_area)
       :: (match id with Some id -> ("id", id) :: tasks | None -> tasks)))
