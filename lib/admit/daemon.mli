(** The admission-control daemon: a live device model (analyzer +
    FPGA area), the admitted taskset, and the line-oriented admit
    protocol over them.

    Requests (one JSON object per line; [id] optional, [Int] or
    [String], echoed in the reply):
    {v {"op":"add-task","id":"r1","task":{"name":"tau1","C":"1.26","D":7,"T":7,"A":9}}
       {"op":"remove-task","id":"r2","name":"tau1"}
       {"op":"query"}
       {"op":"what-if","add":[task…],"drop":["name"…]} v}

    A line is read in one scan: a syntax error anywhere is its error,
    and the first occurrence of a key counts.  A task is read as
    [redf serve] reads one ({!Server.Protocol.read_task}), with a
    non-empty [name] required.

    Replies are {!Server.Protocol} envelopes of kind ["admit"] (or
    ["error"]), carrying [op], [seq], [tasks] and the full verdict of
    the resulting (or hypothetical) taskset.  Verdicts are cached in
    their rendered form, as [redf serve] caches them, and a success
    reply is written in key order around the stored check bytes
    ({!Server.Protocol.add_verdict}).

    A task is admitted iff the analyzer ACCEPTs the candidate taskset
    on the configured device; the empty taskset is trivially
    schedulable.  Admitted mutations are journaled, and fsync'd once
    per batch of lines {e before} any reply of the batch, with the
    reply bytes stored under the request [id]: a retried mutation whose
    reply was lost gets the stored bytes back and is never applied
    twice.  The bytes are kept for the last [dedup_window] mutations
    ({!Store.default_dedup_window}); a retry of an older id is answered
    with the error [reply expired (seq S)], S the seq it was applied
    at, and is not applied either.  Rejected mutations are not
    journaled — rejection is deterministic and a retry re-evaluates
    identically.

    Handlers are serial: the journal orders mutations. *)

type t

val create :
  ?faults:Faults.t ->
  ?snapshot_every:int ->
  ?dedup_window:int ->
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

val handle_lines : t -> string array -> string array
(** One reply line per request line (no trailing newline), in order.
    Group commit: each line sees the mutations admitted by the lines
    before it, whose records are appended without an fsync; one fsync,
    only if the batch journaled something, ends the batch before any
    reply is returned.

    A failed write or fsync raises ([Unix.Unix_error], or
    {!Faults.Crash} when fault injection is active) before any reply is
    returned; the in-memory state is then ahead of the disk, so the
    daemon must not be used again — [Server.Loop] re-raises and
    [redf admit] exits.  After a [kill -9] mid-batch, recovery yields
    the last acknowledged state plus a prefix of the batch's admitted
    mutations, each with its never-sent reply stored under its id: a
    retry by id gets those bytes, and nothing is applied twice. *)

val handle_line : t -> string -> string
(** {!handle_lines} on a one-line batch: one fsync per admitted
    mutation. *)

val is_mutation : string -> bool
(** Whether a raw request line is an [add-task]/[remove-task] — the
    loop gives mutations shedding headroom over [what-if]/[query]. *)

val close : t -> unit
