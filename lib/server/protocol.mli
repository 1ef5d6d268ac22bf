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

type request = {
  id : Wire.Json.t option;  (** echoed verbatim; [Int] or [String] *)
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  taskset : Model.Taskset.t;
}

val parse : string -> (request, Wire.Json.t option * string) result
(** Parse one request line.  The error carries the request [id] when
    the line was well-formed enough to recover it, so even a rejected
    request can be correlated by a pipelining client. *)

val time_value : Wire.Json.t option -> (Model.Time.t, string) result
(** One task's [C], [D] or [T] field: a decimal string
    ({!Model.Time.decimal}) or whole time units.  The error is the
    reason alone (["missing"], ["out of range"], …); callers prefix
    the task and field. *)

val response : request -> Core.Verdict.t -> string
(** The success response line (no trailing newline). *)

val envelope : ?id:Wire.Json.t -> string -> (string * Wire.Json.t) list -> string
(** [envelope ?id kind fields]: a response line with the standard
    [schema_version]/[kind] (and optional echoed [id]) preamble —
    the shared frame for every service speaking this wire format,
    including the admission daemon's [kind = "admit"] replies.
    [fields] given in key order are printed without a sort. *)

val error_response : ?id:Wire.Json.t -> string -> string
(** The error response line (no trailing newline). *)

val request_id : string -> Wire.Json.t option
(** Best-effort [id] recovery from a raw request line (well-formed JSON
    object with an [Int]/[String] [id]) — lets a response be correlated
    without fully parsing the request. *)

val shed_response : string -> string
(** The load-shedding error line for a request the server refused to
    admit ([error = "server overloaded: request shed"]), with the
    request's [id] echoed when recoverable.  Shedding answers instead
    of silently dropping: a pipelining client still gets one response
    line per request line, in order. *)

val request_line : analyzer:string -> fpga_area:int -> ?id:Wire.Json.t -> Model.Taskset.t -> string
(** Serialize a request (no trailing newline) — the inverse of
    {!parse}; used by [redf batch]'s client mode and the tests. *)
