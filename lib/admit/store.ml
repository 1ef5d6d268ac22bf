[@@@redf.det]

(* The durable store: one directory holding the snapshot and the
   write-ahead journal, and the coordination between them.

   Commit path: frame + append + fsync the record, only then apply it
   to the in-memory state — so a record on disk is exactly an
   acknowledged (or about-to-be-acknowledged) mutation, and the crash
   window between append and reply loses at most the reply, never the
   state (rid dedup gives the retrying client the stored reply).

   Snapshot rotation: every [snapshot_every] journaled records, the
   full state is written to [snapshot.bin.tmp], fsync'd, renamed over
   [snapshot.bin], the directory fsync'd, and only then the journal is
   reset.  Every step is crash-safe: dying before the rename leaves the
   old snapshot + full journal; dying between rename and reset leaves
   the new snapshot + a journal whose records replay as no-ops
   (State.apply_record skips seq <= snapshot seq).

   Recovery: load the snapshot (if any), scan the journal, refuse on
   interior corruption, truncate a torn tail, replay the rest. *)

let journal_file = "journal.wal"
let snapshot_file = "snapshot.bin"
let snapshot_magic = "REDFSNP\x01"
let default_snapshot_every = 1024

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
   magic; rename makes it atomic, so unlike the journal any damage here
   is corruption, never a torn write — refuse loudly *)
let load_snapshot path =
  match read_file path with
  | None -> Ok None
  | Some contents ->
    let magic_len = String.length snapshot_magic in
    if
      String.length contents < magic_len + Journal.frame_overhead
      || String.sub contents 0 magic_len <> snapshot_magic
    then Error (Printf.sprintf "%s: not a redf snapshot (bad magic)" path)
    else
      let framed = String.sub contents magic_len (String.length contents - magic_len) in
      let* payload =
        match Journal.unframe framed with
        | Ok p -> Ok p
        | Error msg -> Error (Printf.sprintf "%s: %s — corrupt snapshot" path msg)
      in
      let* st = State.of_snapshot_string payload in
      Ok (Some st)

let write_snapshot dir st =
  let tmp = dir // (snapshot_file ^ ".tmp") in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec write_all s off =
        if off < String.length s then
          match Unix.write_substring fd s off (String.length s - off) with
          | n -> write_all s (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all s off
      in
      let payload = State.to_snapshot_string st in
      write_all (snapshot_magic ^ Journal.frame_header payload) 0;
      write_all payload 0;
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

let open_dir ?(faults = Faults.none) ?(snapshot_every = default_snapshot_every) ~dir () =
  let* () =
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> unusable dir e
  in
  let journal_path = dir // journal_file in
  let* snapshot = load_snapshot (dir // snapshot_file) in
  let base = Option.value snapshot ~default:State.empty in
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

(* Durability first, then visibility: the record hits the journal (and
   the platters) before the in-memory state moves.  Faults.Crash from
   the append propagates with the state untouched — exactly the dying
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

let journal_bytes t = Journal.bytes t.journal
let close t = Journal.close t.journal
