(** The admission-control daemon: a live device model (analyzer +
    FPGA area), the admitted taskset, and the line-oriented admit
    protocol over them.

    Requests (one JSON object per line; [id] optional, [Int] or
    [String], echoed in the reply):
    {v {"op":"add-task","id":"r1","task":{"name":"tau1","C":"1.26","D":7,"T":7,"A":9}}
       {"op":"remove-task","id":"r2","name":"tau1"}
       {"op":"query"}
       {"op":"what-if","add":[task…],"drop":["name"…]} v}

    Replies are {!Server.Protocol} envelopes of kind ["admit"] (or
    ["error"]), carrying [op], [seq], [tasks] and the full verdict of
    the resulting (or hypothetical) taskset.

    A task is admitted iff the analyzer ACCEPTs the candidate taskset
    on the configured device; the empty taskset is trivially
    schedulable.  Admitted mutations are journaled (fsync'd) {e before}
    the reply, with the reply bytes stored under the request [id]: a
    retried mutation whose reply was lost gets the stored bytes back
    and is never applied twice.  Rejected mutations are not journaled —
    rejection is deterministic and a retry re-evaluates identically.

    Handlers are serial: the journal orders mutations. *)

type t

val create :
  ?faults:Faults.t ->
  ?snapshot_every:int ->
  ?cache_capacity:int ->
  analyzer:Core.Analyzer.t ->
  fpga_area:int ->
  dir:string ->
  unit ->
  (t * Store.recovery, string) result
(** Open (and recover) the durable store under [dir] and rebuild the
    incremental canonical form of the admitted taskset. *)

val state : t -> State.t
val store : t -> Store.t
val analyzer : t -> Core.Analyzer.t
val fpga_area : t -> int

val handle_line : t -> string -> string
(** One reply line per request line (no trailing newline).  May raise
    {!Faults.Crash} when fault injection is active. *)

val handle_lines : t -> string list -> string list

val is_mutation : string -> bool
(** Whether a raw request line is an [add-task]/[remove-task] — the
    loop gives mutations shedding headroom over [what-if]/[query]. *)

val request_id : string -> Wire.Json.t option

val close : t -> unit
