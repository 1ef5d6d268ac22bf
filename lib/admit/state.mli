(** The admission daemon's pure state: admitted tasks (admission order,
    unique names), the mutation sequence number, and the request-id
    index behind idempotent retries.

    The index keeps the reply of each id-carrying mutation among the
    last [window] mutations (seqs [seq - window + 1 .. seq]), and only
    id -> seq for the ids before them, so a retry is answered with the
    stored bytes inside the window and recognised, never re-applied,
    past it.

    Everything durable goes through the two codecs here — journal
    {!record}s and snapshots — both canonical JSON (sorted keys, exact
    tick integers), so a given state has exactly one byte form. *)

type op = Add of Model.Task.t | Remove of string

type record = {
  seq : int;  (** 1-based position in the mutation history *)
  rid : string option;  (** client request id, when one was supplied *)
  op : op;
  reply : string;  (** the acknowledged reply line, replayed on duplicate rid *)
}

type t

val empty : t
(** Seq 0, no tasks, and a window that keeps every reply; see
    {!with_dedup_window}. *)

val with_dedup_window : int -> t -> t
(** Keep the replies of the last [n] mutations (at least 1) from now
    on: replies already older move to the id -> seq index at once. *)

val seq : t -> int
val tasks : t -> Model.Task.t list
val names : t -> string list
val size : t -> int
val mem : t -> string -> bool

type retry =
  | Stored of string  (** inside the window: the acknowledged reply bytes *)
  | Expired of int  (** past the window: the seq the id was applied at *)
  | Unknown  (** never applied *)

val lookup : t -> string -> retry
(** What a mutation retried under this request id gets. *)

val reply_for : t -> string -> string option
(** The stored reply of {!lookup}, if any. *)

val stored_replies : t -> int
(** Replies the window holds. *)

val expired_ids : t -> int
(** Ids past the window, each kept as id -> seq only. *)

val equal : t -> t -> bool
(** Same seq, tasks, stored replies (with their seqs) and expired ids;
    the window setting is not compared. *)

val apply_op : t -> op -> (t, string) result
(** Structural application: rejects unnamed/duplicate adds and removes
    of absent names.  Admission policy (the analyzer) lives in
    {!Daemon}, not here. *)

val apply_record : t -> record -> (t, string) result
(** Replay one journal record, then expire the reply that left the
    window.  Records at or below the current [seq] are no-ops (snapshot
    overlap); a sequence gap is an error. *)

val record_to_string : record -> string
val record_of_string : string -> (record, string) result

val to_snapshot_string : t -> string
(** The v2 snapshot payload, printed from a {!Wire.Json.t} tree:
    [{"expired":[[rid,seq]…],"replies":[[rid,seq,reply]…],"seq":N,"tasks":[…]}],
    entries in id order.  The reference {!stream_snapshot} is held
    to. *)

val stream_snapshot : t -> Buffer.t -> flush:(unit -> unit) -> unit
(** Append {!to_snapshot_string}'s bytes to the buffer, calling
    [flush ()] after each expired id, each reply entry, each task and
    the closing brace, so the caller can move them on and never hold
    the whole payload. *)

val of_snapshot_string : ?version:int -> ?pos:int -> string -> (t, string) result
(** Read a v2 payload (the default), or with [~version:1] the v1 layout
    [{"replies":[[rid,reply]…],"seq":N,"tasks":[…]}], whose replies
    carry no seq and each count as seq [N].  With [~pos] the payload is
    the string's suffix from [pos], read in place.  One scan, no tree;
    the result keeps every reply, for {!with_dedup_window} to window. *)
