(** The durable store: a directory with [snapshot.bin] + [journal.wal]
    and the commit/snapshot/recover choreography between them.

    The invariant the whole PR hangs on: after [kill -9] at any byte
    boundary, {!open_dir} recovers exactly the last acknowledged state
    — a torn trailing journal record is truncated, interior corruption
    is refused with a diagnostic, and a snapshot/journal overlap
    replays as no-ops. *)

type t

type recovery = {
  replayed : int;  (** journal records applied on top of the snapshot *)
  torn_bytes : int;  (** half-written tail truncated at open (0 = clean) *)
  snapshot_seq : int;  (** seq restored from the snapshot (0 = none) *)
}

val default_snapshot_every : int
(** 1024: the journal record count that triggers snapshot rotation
    when [open_dir] is given none, and [redf admit --snapshot-every]'s
    default. *)

val open_dir :
  ?faults:Faults.t ->
  ?snapshot_every:int ->
  dir:string ->
  unit ->
  (t * recovery, string) result
(** Create [dir] if needed, run recovery, open the journal for
    appending.  [snapshot_every] (default {!default_snapshot_every})
    is the journal record count that triggers snapshot rotation.  A directory that cannot be
    created or cannot hold the journal is an [Error "DIR: reason"],
    like a corrupt journal. *)

val state : t -> State.t

val commit : ?fsync:bool -> t -> State.record -> (unit, string) result
(** Journal the record (fsync'd by default), then apply it to the
    in-memory state; rotates the snapshot when due.  Raises
    {!Faults.Crash} if the injected fault plan fires mid-append — the
    in-memory state is untouched in that case, mirroring the dying
    process.  [~fsync:false] is for benchmark bulk-loading only. *)

val snapshot : t -> unit
(** Force a snapshot now: write [snapshot.bin] atomically
    (tmp + fsync + rename + dir fsync), then reset the journal. *)

val journal_bytes : t -> int
val close : t -> unit
