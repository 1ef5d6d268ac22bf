(** The append-only write-ahead journal under [redf admit]'s state dir.

    Layout: an 8-byte magic header, then framed records
    [[len:u32le][crc32:u32le][payload]].  {!append} writes the whole
    frame in one go and fsyncs before returning; the daemon replies to
    a mutation only after its record's append returned, which is the
    durability half of the recovery invariant:

    {e recovered state = exactly the last acknowledged state} — a torn
    trailing record (crash mid-append; never acknowledged) is truncated
    away on open, while a corrupt record with intact journal {e after}
    it cannot be a crash artifact (appends are sequential) and is
    rejected with a diagnostic rather than silently skipped.

    Fault injection ({!Faults}) hooks {!append} only; scanning and
    recovery run fault-free, as they would after a real crash. *)

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
(** Frame, write and (by default) fsync one record.  [~fsync:false] is
    for bulk journal construction in benchmarks only — the daemon
    always syncs.  @raise Faults.Crash when the fault plan fires (the
    file is left exactly as the dying process would leave it). *)

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

val frame_header : string -> string
(** The [[len:u32le][crc32:u32le]] {!frame} puts before a payload: the
    snapshot file writes it and then its one payload, so a snapshot is
    never copied whole to be framed. *)

val unframe : string -> (string, string) result
(** Inverse of {!frame} for one exactly-framed blob. *)

(**/**)

val header : string
(** Exposed for the torture tests. *)
