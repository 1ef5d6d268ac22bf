[@@@redf.det]

(* The append-only write-ahead journal.

   On-disk layout: an 8-byte magic header, then framed records
   [len:u32le][crc32:u32le][payload] — payload is one canonical-JSON
   mutation record (Store's business; the journal only sees bytes).
   Append = one write of the whole frame; [sync] fsyncs everything
   appended since the last sync, once per batch of lines, and the
   daemon sends none of a batch's replies before that fsync returned,
   so an acknowledged mutation is on disk whatever happens next.

   Recovery contract ({!scan}):
   - a *torn tail* — the file ends inside a frame, the signature of a
     crash mid-append — is reported so the opener truncates it away:
     the half-written record was never acknowledged, so dropping it
     loses nothing acknowledged;
   - a *corrupt interior record* — a CRC or framing violation with
     more journal after it — cannot come from a process crash (appends
     are sequential, so a crash only ever leaves a prefix) and is rejected
     with a diagnostic naming the record and offset: silently skipping
     acknowledged history would be worse than refusing to start.

   [test_admit.ml] tortures this: for random journals, truncation at
   *every* byte of the final record must recover either the full
   record or cleanly none of it, never an in-between state. *)

let header = "REDFWAL\x01"
let header_len = String.length header
let frame_overhead = 8
let max_record_bytes = 64 * 1024 * 1024

let u32le_to_bytes buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let u32le_of s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let frame_header ~len ~crc =
  let buf = Buffer.create frame_overhead in
  u32le_to_bytes buf len;
  u32le_to_bytes buf crc;
  Buffer.contents buf

let frame payload =
  frame_header ~len:(String.length payload) ~crc:(Crc32.string payload) ^ payload

(* the one frame that fills [s] from [off] to its end (the snapshot
   file reuses the journal's frame for its one record), checked where
   it lies: its payload's length *)
let framed_at s off =
  let follow = String.length s - off - frame_overhead in
  if follow < 0 then Error "framed record too short"
  else
    let len = u32le_of s off in
    let crc = u32le_of s (off + 4) in
    if follow <> len then
      Error
        (Printf.sprintf "framed record length mismatch (header says %d, %d bytes follow)" len
           follow)
    else
      let computed = Crc32.update 0 s (off + frame_overhead) len in
      if computed <> crc then
        Error (Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" crc computed)
      else Ok len

let unframe framed = Result.map (String.sub framed frame_overhead) (framed_at framed 0)

(* --- scanning --- *)

type scan = {
  records : string list;  (** payloads, journal order *)
  valid_bytes : int;  (** prefix length holding the header + intact records *)
  torn_bytes : int;  (** trailing bytes of a half-written record (0 = clean) *)
}

let is_prefix ~of_ s = String.length s <= String.length of_ && String.sub of_ 0 (String.length s) = s

let scan_string ~path contents =
  let total = String.length contents in
  if total = 0 then Ok { records = []; valid_bytes = 0; torn_bytes = 0 }
  else if total < header_len then
    if is_prefix ~of_:header contents then
      (* crash while writing the header of a brand-new journal *)
      Ok { records = []; valid_bytes = 0; torn_bytes = total }
    else Error (Printf.sprintf "%s: not a redf journal (bad magic)" path)
  else if String.sub contents 0 header_len <> header then
    Error (Printf.sprintf "%s: not a redf journal (bad magic)" path)
  else begin
    let records = ref [] in
    let off = ref header_len in
    let result = ref None in
    let finish r = result := Some r in
    let n = ref 0 in
    while !result = None do
      let remaining = total - !off in
      if remaining = 0 then finish (Ok { records = List.rev !records; valid_bytes = !off; torn_bytes = 0 })
      else if remaining < frame_overhead then
        finish (Ok { records = List.rev !records; valid_bytes = !off; torn_bytes = remaining })
      else begin
        incr n;
        let len = u32le_of contents !off in
        let crc = u32le_of contents (!off + 4) in
        if len > max_record_bytes then
          finish
            (Error
               (Printf.sprintf
                  "%s: record %d at offset %d: implausible length %d — corrupt journal" path !n
                  !off len))
        else if remaining < frame_overhead + len then
          finish
            (Ok
               { records = List.rev !records; valid_bytes = !off; torn_bytes = remaining })
        else begin
          let payload = String.sub contents (!off + frame_overhead) len in
          let computed = Crc32.string payload in
          if computed <> crc then
            if remaining = frame_overhead + len then
              (* the bad record is the very last thing in the file: no
                 acknowledged history follows it, so treat it like a
                 torn tail — the crash-y case a block-granular disk can
                 produce even when the byte count adds up *)
              finish
                (Ok
                   { records = List.rev !records; valid_bytes = !off; torn_bytes = remaining })
            else
              finish
                (Error
                   (Printf.sprintf
                      "%s: record %d at offset %d: CRC mismatch (stored %08x, computed %08x) \
                       with intact records after it — corrupt journal, refusing to replay" path
                      !n !off crc computed))
          else begin
            records := payload :: !records;
            off := !off + frame_overhead + len
          end
        end
      end
    done;
    Option.get !result
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let scan ~path =
  match read_file path with
  | None -> Ok { records = []; valid_bytes = 0; torn_bytes = 0 }
  | Some contents -> scan_string ~path contents

(* --- appending --- *)

(* non-det: the loop's batches, hence the syncs, depend on arrival timing *)
let m_fsyncs = Obs.Counter.make ~det:false "admit.journal.fsyncs"

type t = {
  fd : Unix.file_descr;
  faults : Faults.t;
  mutable bytes : int;
  mutable synced : int;  (* file length at the last fsync *)
}

let fsync_file t =
  Unix.fsync t.fd;
  Obs.Counter.incr m_fsyncs;
  t.synced <- t.bytes

let rec write_all fd s off =
  if off < String.length s then begin
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off
  end

(* open for appending after a scan: truncate any torn tail away, write
   the header if the file is new (or its header itself was torn) *)
let open_append ?(faults = Faults.none) ~path ~valid_bytes () =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  match
    let keep = if valid_bytes = 0 then 0 else valid_bytes in
    Unix.ftruncate fd keep;
    if keep = 0 then write_all fd header 0;
    let size = (Unix.fstat fd).Unix.st_size in
    ignore (Unix.lseek fd size Unix.SEEK_SET);
    let t = { fd; faults; bytes = size; synced = 0 } in
    fsync_file t;
    t
  with
  | t -> t
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let bytes t = t.bytes
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* the fsync that ends a batch: nothing to do when the batch journaled
   nothing, or when a snapshot already made its records durable *)
let sync t =
  let len = t.bytes - t.synced in
  if len > 0 then
    match Faults.on_sync t.faults ~len with
    | `Ok -> fsync_file t
    | `Torn k ->
      t.bytes <- t.synced + k;
      Unix.ftruncate t.fd t.bytes;
      fsync_file t;
      raise
        (Faults.Crash (Faults.Torn, Printf.sprintf "torn sync: %d of %d bytes synced" k len))

let append ?(fsync = true) t payload =
  let framed = frame payload in
  match Faults.on_append t.faults ~len:(String.length framed) with
  | `Ok ->
    write_all t.fd framed 0;
    t.bytes <- t.bytes + String.length framed;
    if fsync then sync t
  | `Torn k ->
    write_all t.fd (String.sub framed 0 k) 0;
    fsync_file t;
    raise
      (Faults.Crash
         (Faults.Torn, Printf.sprintf "torn append: %d of %d bytes written" k (String.length framed)))
  | `Lost -> raise (Faults.Crash (Faults.Lost, "fsync failed: record lost"))
  | `Crash_after ->
    write_all t.fd framed 0;
    t.bytes <- t.bytes + String.length framed;
    fsync_file t;
    raise (Faults.Crash (Faults.After_append, "crash between append and reply"))

(* empty the journal after a snapshot made its records redundant *)
let reset t =
  Unix.ftruncate t.fd header_len;
  ignore (Unix.lseek t.fd header_len Unix.SEEK_SET);
  t.bytes <- header_len;
  fsync_file t
