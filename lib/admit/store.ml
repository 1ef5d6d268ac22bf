[@@@redf.det]

(* The durable store: one directory holding the snapshot and the
   write-ahead journal, and the coordination between them.

   Commit path: frame + append the record, only then apply it to the
   in-memory state; [sync] fsyncs the batch's records before any of its
   replies leaves — so a record on disk is exactly an acknowledged (or
   about-to-be-acknowledged) mutation, and the crash window between
   append and reply loses at most the replies, never the state (rid
   dedup gives the retrying client the stored reply).

   Snapshot rotation: every [snapshot_every] journaled records, the
   full state is streamed to [snapshot.bin.tmp] under a placeholder
   frame header, the real header written over it, the file fsync'd,
   renamed over [snapshot.bin], the directory fsync'd, and only then
   the journal is reset.  Every step is crash-safe: dying before the
   rename leaves the old snapshot + full journal; dying between rename
   and reset leaves the new snapshot + a journal whose records replay
   as no-ops (State.apply_record skips seq <= snapshot seq).

   Recovery: load the snapshot (if any), scan the journal, refuse on
   interior corruption, truncate a torn tail, replay the rest. *)

let journal_file = "journal.wal"
let snapshot_file = "snapshot.bin"
let snapshot_magic = "REDFSNP\x02"
let v1_magic = "REDFSNP\x01"  (* read, never written *)
let default_snapshot_every = 1024
let default_dedup_window = 1024

type t = {
  dir : string;
  journal : Journal.t;
  mutable state : State.t;
  mutable journal_records : int;
  snapshot_every : int;
}

type recovery = {
  replayed : int;  (* journal records applied on top of the snapshot *)
  torn_bytes : int;  (* half-written tail truncated at open (0 = clean) *)
  snapshot_seq : int;  (* seq the snapshot restored (0 = none) *)
}

let ( let* ) = Result.bind
let ( // ) = Filename.concat

let state t = t.state

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()  (* some filesystems refuse; rename already happened *)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* the snapshot is one CRC-framed canonical-JSON state under its own
   magic, which names its version; rename makes it atomic, so unlike
   the journal any damage here is corruption, never a torn write —
   refuse loudly.  The frame is checked, and the payload decoded, where
   they lie in the file's bytes. *)
let load_snapshot path =
  match read_file path with
  | None -> Ok None
  | Some contents ->
    let magic_len = String.length snapshot_magic in
    let version =
      if String.starts_with ~prefix:snapshot_magic contents then Some 2
      else if String.starts_with ~prefix:v1_magic contents then Some 1
      else None
    in
    match version with
    | Some version when String.length contents >= magic_len + Journal.frame_overhead ->
      let* _len =
        Result.map_error
          (fun msg -> Printf.sprintf "%s: %s — corrupt snapshot" path msg)
          (Journal.framed_at contents magic_len)
      in
      let* st =
        State.of_snapshot_string ~version ~pos:(magic_len + Journal.frame_overhead) contents
      in
      Ok (Some st)
    | Some _ | None -> Error (Printf.sprintf "%s: not a redf snapshot (bad magic)" path)

(* the payload goes to disk in pieces of this many bytes *)
let piece_bytes = 65536

let write_snapshot dir st =
  let tmp = dir // (snapshot_file ^ ".tmp") in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec write_all b off len =
        if len > 0 then
          match Unix.write fd b off len with
          | n -> write_all b (off + n) (len - n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all b off len
      in
      let write_string s = write_all (Bytes.of_string s) 0 (String.length s) in
      (* the frame header's length and CRC are known only at the end:
         a placeholder now, the real header over it afterwards *)
      write_string (snapshot_magic ^ String.make Journal.frame_overhead '\000');
      (* each element State writes into [buf] is moved on into [piece],
         which is written whenever it is full: one piece and the
         longest element are all the payload this holds *)
      let buf = Buffer.create 4096 and piece = Bytes.create piece_bytes in
      let fill = ref 0 and len = ref 0 and crc = ref 0 in
      let write_piece () =
        (* the string view lives only for this call, and the piece is
           not written to meanwhile *)
        crc := Crc32.update !crc (Bytes.unsafe_to_string piece) 0 !fill;
        len := !len + !fill;
        write_all piece 0 !fill;
        fill := 0
      in
      let move () =
        let n = Buffer.length buf in
        let rec from off =
          if off < n then begin
            let k = min (n - off) (piece_bytes - !fill) in
            Buffer.blit buf off piece !fill k;
            fill := !fill + k;
            if !fill = piece_bytes then write_piece ();
            from (off + k)
          end
        in
        from 0;
        Buffer.clear buf
      in
      State.stream_snapshot st buf ~flush:move;
      write_piece ();
      ignore (Unix.lseek fd (String.length snapshot_magic) Unix.SEEK_SET);
      write_string (Journal.frame_header ~len:!len ~crc:!crc);
      Unix.fsync fd);
  Unix.rename tmp (dir // snapshot_file);
  fsync_dir dir

let replay base payloads =
  List.fold_left
    (fun acc payload ->
      let* st, n = acc in
      let* record = State.record_of_string payload in
      let* st = State.apply_record st record in
      Ok (st, if record.State.seq > State.seq base then n + 1 else n))
    (Ok (base, 0)) payloads

(* a directory that cannot hold the store (a regular file, a missing
   parent, no permission) is refused like a corrupt journal *)
let unusable dir e = Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))

let open_dir ?(faults = Faults.none) ?(snapshot_every = default_snapshot_every)
    ?(dedup_window = default_dedup_window) ~dir () =
  let* () =
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> unusable dir e
  in
  let journal_path = dir // journal_file in
  let* snapshot = load_snapshot (dir // snapshot_file) in
  let base =
    State.with_dedup_window dedup_window (Option.value snapshot ~default:State.empty)
  in
  let* scan = Journal.scan ~path:journal_path in
  let* st, replayed = replay base scan.Journal.records in
  let* journal =
    match
      Journal.open_append ~faults ~path:journal_path ~valid_bytes:scan.Journal.valid_bytes ()
    with
    | journal -> Ok journal
    | exception Unix.Unix_error (e, _, _) -> unusable dir e
  in
  let t =
    {
      dir;
      journal;
      state = st;
      journal_records = List.length scan.Journal.records;
      snapshot_every = max 1 snapshot_every;
    }
  in
  Ok
    ( t,
      {
        replayed;
        torn_bytes = scan.Journal.torn_bytes;
        snapshot_seq = (match snapshot with None -> 0 | Some s -> State.seq s);
      } )

let snapshot t =
  write_snapshot t.dir t.state;
  Journal.reset t.journal;
  t.journal_records <- 0

(* Durability first, then visibility: the record hits the journal
   before the in-memory state moves, and [sync] puts it on the platters
   before any reply that depends on it leaves.  Faults.Crash from the
   append propagates with the state untouched — exactly the dying
   process's view. *)
let commit ?(fsync = true) t record =
  match State.apply_record t.state record with
  | Error _ as e -> e  (* constructed from stale state: caller bug, nothing journaled *)
  | Ok st ->
    Journal.append ~fsync t.journal (State.record_to_string record);
    t.state <- st;
    t.journal_records <- t.journal_records + 1;
    if t.journal_records >= t.snapshot_every then snapshot t;
    Ok ()

let sync t = Journal.sync t.journal

let journal_bytes t = Journal.bytes t.journal
let close t = Journal.close t.journal
