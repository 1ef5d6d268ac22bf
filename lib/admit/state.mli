(** The admission daemon's pure state: admitted tasks (admission order,
    unique names), the mutation sequence number, and the rid -> reply
    map behind idempotent retries.

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
val seq : t -> int
val tasks : t -> Model.Task.t list
val names : t -> string list
val size : t -> int
val mem : t -> string -> bool

val reply_for : t -> string -> string option
(** The stored reply for a request id already applied, if any. *)

val equal : t -> t -> bool

val apply_op : t -> op -> (t, string) result
(** Structural application: rejects unnamed/duplicate adds and removes
    of absent names.  Admission policy (the analyzer) lives in
    {!Daemon}, not here. *)

val apply_record : t -> record -> (t, string) result
(** Replay one journal record.  Records at or below the current [seq]
    are no-ops (snapshot overlap); a sequence gap is an error. *)

val record_to_string : record -> string
val record_of_string : string -> (record, string) result

val to_snapshot_string : t -> string
val of_snapshot_string : string -> (t, string) result
