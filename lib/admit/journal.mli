(** The append-only write-ahead journal under [redf admit]'s state dir.

    Layout: an 8-byte magic header, then framed records
    [[len:u32le][crc32:u32le][payload]].  {!append} writes the whole
    frame in one go; {!sync} fsyncs every record appended since the
    last sync.  The daemon syncs once per batch of lines and sends none
    of the batch's replies before that, which is the durability half of
    the recovery invariant:

    {e recovered state = the last acknowledged state, plus a prefix of
    the batch in flight} — a torn trailing record (crash mid-append;
    never acknowledged) is truncated away on open, while a corrupt
    record with intact journal {e after} it cannot come from a process
    crash (appends are sequential) and is rejected with a diagnostic
    rather than silently skipped.

    Fault injection ({!Faults}) hooks {!append} and {!sync} only;
    scanning and recovery run fault-free, as they would after a real
    crash. *)

type t

type scan = {
  records : string list;  (** intact payloads, journal order *)
  valid_bytes : int;  (** length of the intact prefix (header + records) *)
  torn_bytes : int;  (** trailing bytes of a half-written record; 0 = clean *)
}

val scan : path:string -> (scan, string) result
(** Read and validate the whole journal.  A missing file scans as
    empty; [Error] is the corrupt-interior diagnostic. *)

val open_append : ?faults:Faults.t -> path:string -> valid_bytes:int -> unit -> t
(** Open for appending after a {!scan}: the file is truncated to
    [valid_bytes] (dropping any torn tail), the header is (re)written
    when nothing valid survives, and the result is positioned at the
    end.  @raise Unix.Unix_error on I/O failure. *)

val append : ?fsync:bool -> t -> string -> unit
(** Frame and write one record, then {!sync} unless [~fsync:false]
    (the daemon's group commit: one {!sync} ends the batch).
    @raise Faults.Crash when the fault plan fires (the file is left
    exactly as the dying process would leave it). *)

val sync : t -> unit
(** Fsync the records appended since the last sync; nothing when there
    are none.  Counted in the non-det counter [admit.journal.fsyncs],
    with every other fsync of the journal file.
    @raise Faults.Crash when the plan's [torn_sync] fires (a strict
    prefix of those bytes is left). *)

val reset : t -> unit
(** Truncate back to just the header — called after a snapshot made
    the records redundant. *)

val bytes : t -> int
val close : t -> unit

val frame_overhead : int
(** Bytes of framing per record ([len] + [crc]). *)

val frame : string -> string
(** [[len:u32le][crc32:u32le][payload]] — the torture tests build
    journals from it. *)

val frame_header : len:int -> crc:int -> string
(** The [[len:u32le][crc32:u32le]] {!frame} puts before a payload of
    [len] bytes whose CRC-32 is [crc]: the snapshot file streams its
    payload and writes this header over a placeholder afterwards, so a
    snapshot is never held whole in memory. *)

val framed_at : string -> int -> (int, string) result
(** [framed_at s off] checks the one frame that fills [s] from [off] to
    its end — length, then CRC — where it lies, and gives its payload's
    length; the payload starts at [off + frame_overhead]. *)

val unframe : string -> (string, string) result
(** Inverse of {!frame} for one exactly-framed blob: {!framed_at} at 0,
    then the payload copied out. *)

(**/**)

val header : string
(** Exposed for the torture tests. *)
