(** The analysis service wire format: line-oriented JSON.

    One request per line, one response line per request, in request
    order, so clients can pipeline arbitrarily deep.  The same schema
    is served over stdin/stdout and over a Unix-domain socket, and the
    verdict payload is exactly what [redf analyze --format json] emits
    ({!Core.Report.verdict_json}) — CLI and server outputs are
    interchangeable.

    Request:
    {v {"analyzer":"GN2","fpga_area":10,
        "tasks":[{"name":"tau1","C":"1.26","D":"7","T":"7","A":9},…],
        "id":…}                                                      v}
    [analyzer] is a registry name ({!Core.Analyzer.of_name},
    case-insensitive); [C]/[D]/[T] are decimal strings (or bare
    integers) of time units; [name] is optional; [id] is an optional
    integer or string echoed verbatim in the response.

    Success response ([kind = "verdict"]):
    {v {"schema_version":1,"kind":"verdict","fpga_area":10,
        "analyzer":"GN2","analyzer_version":"1","accepted":true,
        "checks":[…],"id":…}                                         v}

    Error response ([kind = "error"], the request's [id] echoed when it
    could be recovered):
    {v {"schema_version":1,"kind":"error","error":"…","id":…}        v} *)

type decoded = {
  id : Wire.Json.t option;  (** echoed verbatim; [Int] or [String] *)
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  columns : Model.Taskset.Columns.t;
}
(** A request as the engine reads it: the tasks as columns, never as
    {!Model.Task.t} records. *)

type request = {
  id : Wire.Json.t option;  (** echoed verbatim; [Int] or [String] *)
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  taskset : Model.Taskset.t;
}

val decode : string -> (decoded, Wire.Json.t option * string) result
(** Decode one request line in one scan on {!Wire.Json}'s lexer,
    building no JSON tree.  The error carries the request [id] when the
    line was well-formed enough to recover it, so even a rejected
    request can be correlated by a pipelining client.  Results, errors
    included, are those of the tree decoder it replaced
    ([test/protocol_reference.ml]): a syntax error anywhere in the line
    wins; the first occurrence of a key counts; then [analyzer],
    [fpga_area], [tasks], each task's [C], [D], [T], [A] and
    {!Model.Task.make}'s checks, and a non-empty [tasks], in that
    order. *)

val parse : string -> (request, Wire.Json.t option * string) result
(** {!decode}, with the tasks as a {!Model.Taskset.t}. *)

(** {2 The task and id reader}

    {!decode} reads tasks and ids with these, and so does the admission
    daemon: one definition of a task and of why it is malformed. *)

type task_reader
(** Task objects at a {!Wire.Json.cursor}, one reader per line. *)

val task_reader : Wire.Json.cursor -> task_reader

val read_task : task_reader -> unit
(** Read the next value as a task object: the first [name], [C], [D],
    [T] and [A] count; any other value reads as an empty object. *)

val task_name : task_reader -> string option
(** The task's [name], when it was a string. *)

type task_error =
  | Field of string  (** a field and its reason: ["\"C\": missing"] *)
  | Invalid of string  (** {!Model.Task.make}'s message *)

val task : task_reader -> name:string -> (Model.Task.t, task_error) result
(** The task read, or its first fault: [C], [D], [T] (a decimal string
    or whole units), [A] (an integer), then {!Model.Task.make}'s rules. *)

val read_id : Wire.Json.cursor -> Wire.Json.t option
(** Read the next value as an [id]: an integer or a string, else [None]. *)

val add_verdict : Buffer.t -> analyzer:Core.Analyzer.t -> Core.Verdict.Rendered.t -> unit
(** Append a rendered verdict's members as a success response carries
    them, in key order: ["analyzer":…,"analyzer_version":…,"checks":[…]].
    The one writer of the check array: {!verdict_line} and the
    admission daemon's replies both use it. *)

val verdict_line :
  ?id:Wire.Json.t -> analyzer:Core.Analyzer.t -> fpga_area:int -> Core.Verdict.Rendered.t -> string
(** The success response line (no trailing newline) of a rendered
    verdict whose checks index the request's tasks. *)

val response : request -> Core.Verdict.t -> string
(** The success response line (no trailing newline): {!verdict_line}
    of the rendered verdict. *)

val envelope : ?id:Wire.Json.t -> string -> (string * Wire.Json.t) list -> string
(** [envelope ?id kind fields]: a response line with the standard
    [schema_version]/[kind] (and optional echoed [id]) preamble, keys
    sorted — the frame of both daemons' error lines.  Success replies
    ({!verdict_line}, the admission daemon's) print these bytes
    without building the tree.  [fields] given in key order are
    printed without a sort. *)

val error_response : ?id:Wire.Json.t -> string -> string
(** The error response line (no trailing newline). *)

val request_id : string -> Wire.Json.t option
(** Best-effort [id] recovery from a raw request line (well-formed JSON
    object whose first [id] is an [Int]/[String]) — lets a response be
    correlated without decoding the request. *)

val shed_response : string -> string
(** The load-shedding error line for a request the server refused to
    admit ([error = "server overloaded: request shed"]), with the
    request's [id] echoed when recoverable.  Shedding answers instead
    of silently dropping: a pipelining client still gets one response
    line per request line, in order. *)

val request_line : analyzer:string -> fpga_area:int -> ?id:Wire.Json.t -> Model.Taskset.t -> string
(** Serialize a request (no trailing newline) — the inverse of
    {!parse}; used by [redf batch]'s client mode and the tests. *)
