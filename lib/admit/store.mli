(** The durable store: a directory with [snapshot.bin] + [journal.wal]
    and the commit/snapshot/recover choreography between them.

    The recovery invariant: after [kill -9] at any byte boundary,
    {!open_dir} recovers the last acknowledged state plus a prefix of
    the batch in flight — the records {!commit}ted since the last
    {!sync}, none of whose replies was sent.  Each recovered record
    keeps its never-sent reply under its request id, so a retry by id
    gets the stored bytes and nothing is applied twice.  A torn
    trailing journal record is truncated, interior corruption is
    refused with a diagnostic, and a snapshot/journal overlap replays
    as no-ops.

    A power loss during the batch's fsync is weaker than [kill -9]: the
    disk may keep any subset of the pages not yet synced, so any record
    of the batch can be damaged, not only the last.  Damage in the
    final record reads as a torn tail and is truncated; damage with
    intact records after it is refused by the scan as interior
    corruption, naming the record and offset.  Every record from that
    offset on belongs to the unacknowledged batch, so truncating the
    journal there recovers the acknowledged state. *)

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

val default_dedup_window : int
(** 1024: the mutations whose replies the state keeps
    ({!State.with_dedup_window}) when [open_dir] is given none, and
    [redf admit --dedup-window]'s default. *)

val open_dir :
  ?faults:Faults.t ->
  ?snapshot_every:int ->
  ?dedup_window:int ->
  dir:string ->
  unit ->
  (t * recovery, string) result
(** Create [dir] if needed, run recovery, open the journal for
    appending.  [snapshot_every] (default {!default_snapshot_every})
    is the journal record count that triggers snapshot rotation;
    [dedup_window] (default {!default_dedup_window}) windows the
    recovered state, snapshot and replayed records alike.  A v1
    snapshot ([REDFSNP\x01]) is read as well as the v2 one written
    ([REDFSNP\x02]).  A directory that cannot be created or cannot hold
    the journal is an [Error "DIR: reason"], like a corrupt journal. *)

val state : t -> State.t

val commit : ?fsync:bool -> t -> State.record -> (unit, string) result
(** Journal the record, then apply it to the in-memory state; rotates
    the snapshot when due (the rotation keeps its own fsyncs, and the
    snapshot holds the records not yet synced).  With [~fsync:true],
    the default, the record is fsync'd before [commit] returns; with
    [~fsync:false] it waits for the next {!sync}, which is how the
    daemon commits a batch.  Raises {!Faults.Crash} if the injected
    fault plan fires mid-append — the in-memory state is untouched in
    that case, mirroring the dying process. *)

val sync : t -> unit
(** Fsync the journal records committed since the last sync, once;
    nothing when there are none.  Nothing that depends on those records
    may be acknowledged before [sync] returns.  Raises {!Faults.Crash}
    (the batch-fsync fault) or [Unix.Unix_error]; either way the
    in-memory state is then ahead of the disk, and the store must not
    be used again. *)

val snapshot : t -> unit
(** Force a snapshot now: write [snapshot.bin] atomically
    (tmp + fsync + rename + dir fsync), then reset the journal.  The
    payload is streamed in fixed-size pieces with the frame header
    written last, so the write holds one piece, not the whole state;
    the file is [magic ^ Journal.frame (State.to_snapshot_string s)]
    byte for byte, with the v2 magic [REDFSNP\x02]. *)

val journal_bytes : t -> int
val close : t -> unit
