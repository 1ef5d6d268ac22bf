(** Per-connection line framing: the state machine behind every
    connection of the event loop ({!Loop}) — stdio, Unix socket and TCP
    alike.

    A framer turns an arbitrary sequence of byte chunks into an ordered
    sequence of {!item}s, enforcing the request-line byte cap and the
    partial-line timeout.  It is pure with respect to the clock — every
    time-dependent entry point takes [now] explicitly — so the framing
    semantics are unit-testable without sleeping.

    Contracts (each fixing a historical serve-loop bug):
    - {e order}: complete lines extracted from a chunk are emitted, in
      arrival order, {e before} any [Too_large] produced by the trailing
      partial of the same chunk — a framing error never swallows the
      well-formed requests that preceded it;
    - {e cap}: [max_line_bytes] applies to complete lines too, not just
      to unterminated partials — an over-cap line that arrives fully
      terminated in one chunk is reported [Too_large], never emitted as
      a [Line];
    - {e deadline}: the partial-line deadline is armed once, when the
      partial {e starts}, and is cleared only when the line completes or
      is dropped — later chunks of the same line never push it back, so
      a client trickling one byte per interval cannot hold a connection
      open forever.

    After a line is dropped ([Too_large] while unterminated, or
    [Timed_out]), the remaining bytes of that line are discarded up to
    and including its terminating newline; they produce no further
    items. *)

type item =
  | Line of string
      (** A complete, non-blank request line within the cap (newline
          stripped). *)
  | Too_large of int
      (** A line exceeded [max_line_bytes]; the payload is the size
          observed when the cap tripped.  Emitted exactly once per
          over-cap line. *)
  | Timed_out
      (** The pending partial line was dropped because its deadline
          expired ({!check_deadline}). *)

type t

val default_max_line_bytes : int
(** 16 MiB — the service-wide request-line cap. *)

val create : ?max_line_bytes:int -> ?timeout:float -> unit -> t
(** [max_line_bytes] defaults to {!default_max_line_bytes};
    [timeout] (seconds) bounds the wait for the rest of a partially
    received line — omitted means partials never expire. *)

val feed : t -> now:float -> string -> item list
(** Process one received chunk; returns the items it completes, in
    arrival order.  Arms the deadline ([now + timeout]) iff the chunk
    leaves a {e new} trailing partial. *)

val finish : t -> item list
(** End of input: the trailing unterminated line, if any and non-blank,
    is the final request.  Resets the framer. *)

val check_deadline : t -> now:float -> item list
(** [[Timed_out]] if a partial is pending and its deadline has passed
    (the partial is dropped); [[]] otherwise. *)

val deadline : t -> float option
(** The armed deadline, when a partial is pending and [timeout] was
    given — what a select loop should wake up by. *)
