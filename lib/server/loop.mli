(** The event loop behind [redf serve] and [redf admit]: one
    [select]-driven thread multiplexing every connection — the
    pre-connected stdio endpoint, and any number of clients accepted on
    Unix-domain and TCP listeners — with the request evaluation itself
    fanned out by the service (the engine's worker pool).  It is the
    one place where a byte stream becomes request lines, error lines
    and responses.

    Shape: each connection carries a {!Framing.t} (so the byte-cap /
    timeout / order contracts are per connection), an ordered queue of
    pending steps (a request line to evaluate, or an error line framing
    or shedding produced), and an output buffer drained through its fd.
    Each tick, the loop accepts, reads whatever is available, frames
    it, and evaluates the ready request lines of {e all} connections as
    one [handle_lines] batch, stitching the responses back per
    connection in arrival order.

    Determinism contract: per connection, the response bytes equal the
    service's [handle_lines] over that connection's request lines, with
    each dropped line's error line in its place — batching across
    connections changes wall-clock only, never bytes.  (test_server.ml's
    concurrent-clients test checks exactly this, over a Unix socket and
    over TCP.)

    Backpressure and load shedding:
    - a connection whose pending-step queue reaches [max_pending], or
      whose unsent output exceeds [max_buffered_bytes], stops being
      read until it drains — per-client flow control that costs the
      other clients nothing;
    - once [max_inflight] request lines are admitted globally, further
      lines are {e shed}: answered immediately (in order) with the
      service's [shed_response] instead of being queued.  Shedding
      keeps the one-response-per-request contract — an overloaded
      server degrades loudly, it does not stall or drop silently.

    Graceful drain: after stop is requested, every request line already
    received is answered and flushed (bounded by a few seconds for
    unresponsive socket clients), partial lines are dropped, all owned
    fds are closed and socket files removed.  A service that raises
    gets no drain: it is never called again, its queued lines stay
    unanswered, the connections are closed and the exception escapes
    {!serve_service} unchanged. *)

type limits = {
  max_pending : int;
      (** Per-connection bound on queued steps before the connection
          stops being read (also the per-tick evaluation allowance per
          connection).  Default 1024. *)
  max_inflight : int;
      (** Global bound on admitted-but-unanswered request lines; lines
          beyond it are shed.  Default 4096. *)
  max_buffered_bytes : int;
      (** Per-connection bound on unsent response bytes before the
          connection stops being read.  Default 8 MiB. *)
}

val default_limits : limits

val too_large_message : string
(** The error answering a request line over the 16 MiB cap. *)

val timeout_message : string
(** The error answering a partial line dropped at its deadline. *)

type listener

val stdio_listener : input:Unix.file_descr -> output:Unix.file_descr -> listener
(** A pre-connected endpoint over an fd pair the caller owns (typically
    stdin/stdout): it yields exactly one connection, at loop start.
    The loop never sets [O_NONBLOCK] on these fds (the flag would leak
    to every process sharing the file description) and never closes
    them; it reads only after [select] reports input, and a blocking
    write stalls the loop until the reader catches up.  End of input,
    a write error (the reader went away) or [idle_timeout] ends the
    connection. *)

val unix_listener : path:string -> listener
(** Bind and listen on a Unix-domain socket.  A stale socket file at
    [path] is replaced; any other kind of file is an error.  The socket
    file is removed when {!serve_service} returns.
    @raise Unix.Unix_error / Failure on bind/listen problems. *)

val tcp_listener : host:string -> port:int -> listener
(** Bind and listen on TCP [host:port].  [host] is a numeric IPv4/IPv6
    address or ["localhost"]; [port = 0] picks an ephemeral port
    (recover it with {!bound_port}).
    @raise Unix.Unix_error / Failure on resolve/bind/listen problems. *)

val bound_port : listener -> int
(** The actually bound TCP port (useful after [port = 0]).
    @raise Invalid_argument on a Unix-domain or stdio listener. *)

type service = {
  handle_lines : string array -> string array;
      (** One response per request line, in request order.  Called on
          the loop's own domain; a service wanting parallelism brings
          its own pool (as {!Engine.handle_lines} does). *)
  stop_requested : unit -> bool;
  shed_response : string -> string;
  is_mutation : string -> bool;
      (** Lines for which shedding is deferred to [2 * max_inflight]:
          under overload the admission daemon keeps accepting
          mutations while read-only traffic is shed first.  Asked only
          once [max_inflight] lines are in flight. *)
}
(** What the loop needs to know about the thing it serves — the
    analysis engine ([redf serve]) and the admission daemon
    ([redf admit]) both fit. *)

val serve_service :
  service -> ?timeout:float -> ?idle_timeout:float -> ?limits:limits -> listener list -> unit
(** Run the event loop over [listeners] until [stop_requested], or
    until no socket listener is left to accept and every connection —
    the stdio one included — has ended; then drain and clean the
    listeners up.  If [service.handle_lines] (or the loop) raises, the
    loop calls the service no more: it closes the connections without
    answering their queued lines, cleans the listeners up and re-raises
    the original exception.

    [timeout] (seconds) bounds the wait for the rest of a {e partially}
    received request line, measured from when the partial {e started}
    (trickling more bytes does not extend it); on expiry the partial is
    dropped and answered with {!timeout_message}.  [idle_timeout]
    (seconds; default: off) closes a connection that stayed completely
    idle — nothing read, queued or unwritten — for longer than the
    limit (granularity: one loop tick, up to 0.5 s).  SIGPIPE is
    ignored for the process: a client that vanishes mid-write costs its
    connection, never the loop. *)
