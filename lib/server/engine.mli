(** The request-serving engine behind [redf serve] and [redf batch].

    One engine owns the process-wide verdict cache ({!Cache.Verdicts},
    sharded — see [shards] below) and a {!Parallel.Pool} of worker
    domains; every front end — the event loop ({!Loop}) serving stdio,
    Unix sockets and TCP, an in-process batch — funnels through
    {!handle_lines}, so they all share the cache and return identical
    bytes for identical requests.

    Contracts:
    - {e isolation}: {!handle_line} never raises — a malformed or
      crashing request yields an error-response line, the process (and
      the other requests of the batch) continue;
    - {e determinism}: responses are written in request order and their
      bytes are independent of the worker count, the shard count and
      cache state (cached answers are remapped to the request's task
      order, see {!Cache.Verdicts}).

    How a byte stream becomes request lines, error lines and responses
    — the line cap, the partial-line timeout, backpressure, shedding
    and the graceful drain — is {!Loop}'s alone. *)

type t

val create : ?cache_size:int -> ?shards:int -> jobs:int -> unit -> t
(** [cache_size] (default 4096 entries; 0 disables caching) bounds the
    verdict LRU, split over [shards] (default 8) independently locked
    shards so worker domains don't serialize on one cache mutex; [jobs]
    follows the CLI convention (resolved via {!Parallel.resolve_jobs}:
    0 = one worker per core).
    @raise Invalid_argument when [cache_size < 0] or [shards < 1]. *)

val shutdown : t -> unit
(** Join the worker domains.  The engine must not be used afterwards. *)

val with_engine : ?cache_size:int -> ?shards:int -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val cache_stats : t -> Cache.Lru.stats

val request_stop : t -> unit
val stop_requested : t -> bool
(** The engine's stop flag, which {!Loop.serve} polls once per tick. *)

val handle_line : t -> string -> string
(** One request line to one response line (no newline).  Never raises. *)

val handle_lines : t -> string array -> string array
(** Fan a batch out over the pool; responses in request order,
    byte-identical to mapping {!handle_line}.  Internally the batch is
    parsed in parallel, grouped by (analyzer, version, device area) and
    decided through {!Cache.Verdicts.decide_all}, so duplicate tasksets
    in a batch cost one decision and the columnar analyzers amortize
    their per-taskset setup. *)

val client_roundtrip_addr :
  addr:Unix.sockaddr -> string array -> (string array, string) result
(** Connect to a server at [addr] (Unix-domain or TCP; TCP connections
    set [TCP_NODELAY]), pipeline all request lines, and collect the
    response lines (request order).  Interleaves writing and reading,
    so arbitrarily large batches cannot deadlock on socket buffers.  A
    connection that ends early yields the responses that did arrive;
    {!client_roundtrip_retry} turns a short answer into an error. *)

val client_roundtrip_retry :
  addr:Unix.sockaddr ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  string array ->
  (string array, string) result
(** {!client_roundtrip_addr} with resume-on-reconnect: responses come
    back one per request in order, so after a lost connection (connect
    refused, or fewer responses than requests) only the unanswered
    {e suffix} is re-sent — up to [retries] times, with exponential
    backoff from [backoff_ms] and deterministic jitter ([seed]).
    Requests already answered are never repeated on the wire; re-sent
    mutations rely on the admission daemon's request-id dedup for
    exactly-once effect.  With [retries = 0] (the default) it is the
    strict single roundtrip behind [redf batch --connect]: any missing
    response is an [Error "connection lost after k of n responses"]. *)

val client_hold :
  addr:Unix.sockaddr ->
  hold:float ->
  string array ->
  (string array * [ `Closed_by_server | `Hold_expired ], string) result
(** Pipeline [lines], then keep the connection open and idle (send side
    deliberately {e not} shut down) until the server closes it or
    [hold] seconds pass — the probe for [serve --idle-timeout]. *)
