(* Tests for the crash-safe admission stack: CRC framing, the
   journal's torn-tail/corrupt-interior recovery policy (exhaustively,
   at every byte boundary of the last record), state/record codecs and
   idempotent replay, snapshot rotation through the store, the
   streamed snapshot (its memory, its frame's diagnostics, its bytes
   against the tree printer's), the snapshot decoder's memory, the
   dedup window's counts, the daemon's verdict byte-identity
   against a from-scratch analyzer run, request-id dedup inside and
   past the dedup window, a v1 snapshot kept from before the window, a
   cold replay of a 10^4-record journal, seven fixed-seed chaos runs
   (three of them in batches, one past a window of 8), random and
   byte-mutated lines, none of which may raise,
   answer other than one line, journal a rejection, or answer other
   bytes than test/admit_reference.ml, a seeded stream of well-formed
   ops at admit-churn's scale held to that reference byte for byte,
   one line at a time and in batches, and the fsyncs group commit
   makes. *)

open Core_helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ( // ) = Filename.concat

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let analyzer =
  match Core.Analyzer.of_name "GN2" with Ok a -> a | Error msg -> failwith msg

(* --- crc32 --- *)

let crc32_known_answers () =
  (* the standard IEEE 802.3 check value, plus anchors that pin the
     byte order and the empty case *)
  check_int "check value" 0xCBF43926 (Admit.Crc32.string "123456789");
  check_int "empty" 0 (Admit.Crc32.string "");
  check_int "single NUL" 0xD202EF8D (Admit.Crc32.string "\x00");
  check_int "ascii 'a'" 0xE8B7BE43 (Admit.Crc32.string "a")

let crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Admit.Crc32.string s in
  for cut = 0 to String.length s do
    let part = Admit.Crc32.update 0 s 0 cut in
    check_int
      (Printf.sprintf "split at %d" cut)
      whole
      (Admit.Crc32.update part s cut (String.length s - cut))
  done

(* --- journal framing --- *)

let frame_roundtrip =
  qtest ~count:200 "frame/unframe roundtrip" QCheck2.Gen.string (fun payload ->
      Admit.Journal.unframe (Admit.Journal.frame payload) = Ok payload)

let unframe_rejects_corruption () =
  let framed = Admit.Journal.frame "payload" in
  for i = 0 to String.length framed - 1 do
    let bytes = Bytes.of_string framed in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
    match Admit.Journal.unframe (Bytes.to_string bytes) with
    | Error _ -> ()
    | Ok p -> Alcotest.failf "flip at %d still unframed as %S" i p
  done

(* --- the recovery policy, exhaustively ---

   A journal holding [payloads] is truncated at *every* byte boundary
   of its last record: every cut must scan as the full prefix plus
   either the complete last record (cut = end) or a cleanly dropped
   torn tail — never a partial payload, never an error.  This is the
   crash-at-any-byte half of the recovery invariant; corrupt-interior
   rejection is the other half. *)

let scan_ok path =
  match Admit.Journal.scan ~path with
  | Ok s -> s
  | Error msg -> Alcotest.failf "scan %s: %s" path msg

let journal_bytes payloads =
  Admit.Journal.header ^ String.concat "" (List.map Admit.Journal.frame payloads)

let truncation_policy_exhaustive () =
  with_temp_dir "trunc" @@ fun dir ->
  let path = dir // "journal.wal" in
  let payloads = [ "alpha"; ""; "a longer third record with more bytes in it"; "tail" ] in
  let full = journal_bytes payloads in
  let prefix = journal_bytes (List.filteri (fun i _ -> i < 3) payloads) in
  let prefix_len = String.length prefix in
  for cut = 0 to String.length full do
    write_file path (String.sub full 0 cut);
    let scan = scan_ok path in
    if cut < String.length Admit.Journal.header then begin
      (* a torn header scans as an empty journal *)
      check_int (Printf.sprintf "cut %d: no records" cut) 0 (List.length scan.Admit.Journal.records);
      check_int (Printf.sprintf "cut %d: torn header" cut) cut scan.Admit.Journal.torn_bytes
    end
    else if cut = String.length full then
      Alcotest.(check (list string)) "full journal intact" payloads scan.Admit.Journal.records
    else if cut >= prefix_len then begin
      (* inside the last record: the prefix survives, the tail is torn *)
      Alcotest.(check (list string))
        (Printf.sprintf "cut %d: prefix records" cut)
        (List.filteri (fun i _ -> i < 3) payloads)
        scan.Admit.Journal.records;
      check_int (Printf.sprintf "cut %d: valid prefix" cut) prefix_len scan.Admit.Journal.valid_bytes;
      check_int (Printf.sprintf "cut %d: torn tail" cut) (cut - prefix_len)
        scan.Admit.Journal.torn_bytes
    end
    else
      (* inside an interior record the same policy applies record by
         record: whatever full records fit before the cut survive *)
      check_int
        (Printf.sprintf "cut %d: consistent split" cut)
        cut
        (scan.Admit.Journal.valid_bytes + scan.Admit.Journal.torn_bytes)
  done

let truncation_policy_random =
  qtest ~count:60 "random journals truncate cleanly at every byte"
    QCheck2.Gen.(list_size (int_range 1 5) (string_size (int_range 0 24)))
    (fun payloads ->
      with_temp_dir "qtrunc" @@ fun dir ->
      let path = dir // "journal.wal" in
      let full = journal_bytes payloads in
      let n = List.length payloads in
      let prefix_len = String.length (journal_bytes (List.filteri (fun i _ -> i < n - 1) payloads)) in
      let ok = ref true in
      for cut = prefix_len to String.length full do
        write_file path (String.sub full 0 cut);
        match Admit.Journal.scan ~path with
        | Error _ -> ok := false
        | Ok scan ->
          let expected_records =
            if cut = String.length full then payloads
            else List.filteri (fun i _ -> i < n - 1) payloads
          in
          if scan.Admit.Journal.records <> expected_records then ok := false;
          (* recovery after the truncation must accept an append *)
          let j =
            Admit.Journal.open_append ~path ~valid_bytes:scan.Admit.Journal.valid_bytes ()
          in
          Admit.Journal.append ~fsync:false j "appended-after-recovery";
          Admit.Journal.close j;
          (match Admit.Journal.scan ~path with
          | Ok rescan ->
            if rescan.Admit.Journal.records <> expected_records @ [ "appended-after-recovery" ]
            then ok := false
          | Error _ -> ok := false)
      done;
      !ok)

let corrupt_interior_rejected () =
  with_temp_dir "corrupt" @@ fun dir ->
  let path = dir // "journal.wal" in
  let payloads = [ "first-record"; "second-record"; "third-record" ] in
  let full = journal_bytes payloads in
  (* flip one payload byte of the *first* record: a CRC mismatch with
     intact records after it cannot be a crash artifact *)
  let pos = String.length Admit.Journal.header + Admit.Journal.frame_overhead + 2 in
  let bytes = Bytes.of_string full in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  write_file path (Bytes.to_string bytes);
  (match Admit.Journal.scan ~path with
  | Ok _ -> Alcotest.fail "corrupt interior record scanned as OK"
  | Error msg ->
    check_bool
      (Printf.sprintf "diagnostic mentions corruption: %S" msg)
      true
      (let n = String.length msg in
       let rec at i = i + 7 <= n && (String.sub msg i 7 = "corrupt" || at (i + 1)) in
       at 0));
  (* the same flip in the *last* record is indistinguishable from a
     torn append and must recover by dropping it *)
  let last_frame_len =
    String.length full - String.length (journal_bytes [ "first-record"; "second-record" ])
  in
  let pos = String.length full - last_frame_len + Admit.Journal.frame_overhead + 2 in
  let bytes = Bytes.of_string full in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  write_file path (Bytes.to_string bytes);
  let scan = scan_ok path in
  Alcotest.(check (list string))
    "bad-CRC tail dropped"
    [ "first-record"; "second-record" ]
    scan.Admit.Journal.records;
  check_int "whole tail frame torn" last_frame_len scan.Admit.Journal.torn_bytes

(* --- state and codecs --- *)

let t1 = task "tau1" "1.26" "7" "7" 9
let t2 = task "tau2" "0.95" "5" "5" 6

let state_apply_rules () =
  let open Admit.State in
  let s =
    match apply_op empty (Add t1) with Ok s -> s | Error e -> Alcotest.fail e
  in
  check_int "size" 1 (size s);
  check_bool "mem" true (mem s "tau1");
  (match apply_op s (Add t1) with
  | Ok _ -> Alcotest.fail "duplicate add accepted"
  | Error _ -> ());
  (match apply_op s (Remove "absent") with
  | Ok _ -> Alcotest.fail "absent remove accepted"
  | Error _ -> ());
  let s2 = match apply_op s (Remove "tau1") with Ok s -> s | Error e -> Alcotest.fail e in
  check_int "empty again" 0 (size s2);
  check_bool "states differ" false (equal s s2)

let record_replay_rules () =
  let open Admit.State in
  let r seq op = { seq; rid = Some (Printf.sprintf "\"r%d\"" seq); op; reply = "ack" } in
  let s1 = match apply_record empty (r 1 (Add t1)) with Ok s -> s | Error e -> Alcotest.fail e in
  check_int "seq advanced" 1 (seq s1);
  check_bool "reply stored" true (reply_for s1 "\"r1\"" = Some "ack");
  (* at-or-below seq: the snapshot-overlap no-op *)
  (match apply_record s1 (r 1 (Add t1)) with
  | Ok s -> check_bool "no-op below seq" true (equal s s1)
  | Error e -> Alcotest.fail e);
  (* a gap is corruption, not a no-op *)
  (match apply_record s1 (r 3 (Add t2)) with
  | Ok _ -> Alcotest.fail "seq gap accepted"
  | Error msg ->
    check_bool "gap diagnostic" true (String.length msg > 0));
  let s2 = match apply_record s1 (r 2 (Add t2)) with Ok s -> s | Error e -> Alcotest.fail e in
  check_int "two tasks" 2 (size s2);
  Alcotest.(check (list string)) "admission order" [ "tau1"; "tau2" ] (names s2)

let codec_roundtrips () =
  let open Admit.State in
  let records =
    [
      { seq = 1; rid = Some "\"r1\""; op = Add t1; reply = {|{"kind":"admit","seq":1}|} };
      { seq = 2; rid = None; op = Remove "tau1"; reply = "reply with \"quotes\" and \n" };
      { seq = 3; rid = Some "7"; op = Add t2; reply = "" };
    ]
  in
  List.iter
    (fun r ->
      match record_of_string (record_to_string r) with
      | Error e -> Alcotest.failf "record roundtrip: %s" e
      | Ok r' ->
        check_bool (Printf.sprintf "record %d roundtrips" r.seq) true
          (record_to_string r = record_to_string r'))
    records;
  let s =
    List.fold_left
      (fun s r -> match apply_record s r with Ok s -> s | Error e -> Alcotest.fail e)
      empty records
  in
  (match of_snapshot_string (to_snapshot_string s) with
  | Error e -> Alcotest.failf "snapshot roundtrip: %s" e
  | Ok s' ->
    check_bool "snapshot roundtrips" true (equal s s');
    check_bool "replies survive" true (reply_for s' "\"r1\"" = reply_for s "\"r1\""));
  (* canonicity: one byte form per state *)
  check_str "snapshot canonical" (to_snapshot_string s) (to_snapshot_string s)

(* --- store: commit / rotate / recover --- *)

let store_recovers_after_rotation () =
  with_temp_dir "store" @@ fun dir ->
  let reopen () =
    match Admit.Store.open_dir ~snapshot_every:3 ~dir () with
    | Ok (st, recovery) -> (st, recovery)
    | Error msg -> Alcotest.failf "open_dir: %s" msg
  in
  let st, recovery = reopen () in
  check_int "fresh store" 0 recovery.Admit.Store.replayed;
  let commit st seq op =
    match
      Admit.Store.commit st
        { Admit.State.seq; rid = Some (string_of_int seq); op; reply = "ok-" ^ string_of_int seq }
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "commit %d: %s" seq msg
  in
  (* 7 commits over snapshot_every = 3: at least two rotations *)
  commit st 1 (Admit.State.Add t1);
  commit st 2 (Admit.State.Add t2);
  commit st 3 (Admit.State.Remove "tau1");
  commit st 4 (Admit.State.Add (task "tau3" "0.5" "9" "9" 2));
  commit st 5 (Admit.State.Remove "tau3");
  commit st 6 (Admit.State.Add (task "tau4" "0.25" "4" "4" 1));
  commit st 7 (Admit.State.Remove "tau4");
  let final = Admit.Store.state st in
  Admit.Store.close st;
  let st2, recovery = reopen () in
  check_bool "recovered ≡ final" true (Admit.State.equal final (Admit.Store.state st2));
  check_int "recovered seq" 7 (Admit.State.seq (Admit.Store.state st2));
  check_bool "snapshot did its job" true (recovery.Admit.Store.snapshot_seq >= 3);
  check_bool "replies recovered" true
    (Admit.State.reply_for (Admit.Store.state st2) "5" = Some "ok-5");
  Admit.Store.close st2

(* a path that cannot hold the store is an Error naming it, never a
   Unix_error escaping the open *)
let store_refuses_unusable_dir () =
  with_temp_dir "unusable" @@ fun dir ->
  let refused what path reason =
    match Admit.Store.open_dir ~dir:path () with
    | Ok (st, _) ->
      Admit.Store.close st;
      Alcotest.failf "%s: opened" what
    | Error msg -> check_str what (path ^ ": " ^ reason) msg
  in
  let file = dir // "afile" in
  write_file file "not a directory";
  refused "regular file" file "Not a directory";
  refused "missing parent" (dir // "missing" // "sub") "No such file or directory"

(* --- snapshot: streamed out, checked in place --- *)

let snapshot_magic = "REDFSNP\x02"

let open_store ?snapshot_every ?dedup_window dir =
  match Admit.Store.open_dir ?snapshot_every ?dedup_window ~dir () with
  | Ok (st, recovery) -> (st, recovery)
  | Error msg -> Alcotest.failf "open_dir: %s" msg

let commit_all st records =
  List.iter
    (fun (r : Admit.State.record) ->
      match Admit.Store.commit ~fsync:false st r with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "commit %d: %s" r.Admit.State.seq msg)
    records

(* [n] records flipping one task in and out, each with [reply i] *)
let flip_records n reply =
  List.init n (fun i ->
      let seq = i + 1 in
      {
        Admit.State.seq;
        rid = Some (Printf.sprintf "\"m%d\"" seq);
        op =
          (if seq mod 2 = 1 then Admit.State.Add (task "flip" "1" "9" "9" 1)
           else Admit.State.Remove "flip");
        reply = reply seq;
      })

(* Writing a snapshot holds a piece of it at a time, never the whole
   payload: over 4 MB of replies raise the heap's high-water mark by
   less than the payload's size (a payload printed whole from a tree
   into a doubling buffer and copied out raises it by about 2.6 times
   its size here).  Runs before the suite's large allocations, since
   the mark only rises. *)
let snapshot_memory () =
  with_temp_dir "snapmem" @@ fun dir ->
  let st, _ = open_store ~snapshot_every:max_int ~dedup_window:1400 dir in
  Fun.protect ~finally:(fun () -> Admit.Store.close st) @@ fun () ->
  let reply seq =
    Printf.sprintf {|{"accepted":true,"checks":"%s","id":"m%d"}|}
      (String.concat "" (List.init 140 (fun i -> Printf.sprintf "task \"%d\" at %d, " i seq)))
      seq
  in
  (* the commits' garbage is compacted away as it comes, so the mark
     starts near the state's own size *)
  List.iteri
    (fun i r ->
      commit_all st [ r ];
      if i mod 100 = 99 then Gc.compact ())
    (flip_records 1400 reply);
  let top_bytes () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let before = top_bytes () in
  Admit.Store.snapshot st;
  let raised = top_bytes () - before in
  let payload =
    (Unix.stat (dir // "snapshot.bin")).Unix.st_size
    - String.length snapshot_magic - Admit.Journal.frame_overhead
  in
  check_bool (Printf.sprintf "a payload over 4 MB (%d bytes)" payload) true (payload > 4_000_000);
  if raised >= payload then
    Alcotest.failf "writing a %d-byte snapshot raised the heap's high-water mark by %d bytes"
      payload raised

(* Opening a snapshot decodes it in one scan, in place in the file's
   bytes and building no tree: a v1 snapshot of over 4 MB of escaped
   replies allocates less than 2.7 times its payload and raises the
   heap's high-water mark by less than 1.65 times it (2.28–2.34 and
   1.39–1.49 here; a tree decoder over a copy of the payload allocates
   3.08 and raises 1.80, with the same string decoding).  The file is
   written a piece at a time, so the test holds no copy of it, and the
   case runs before the snapshot write's, whose state raises the mark
   further. *)
let snapshot_decode_memory () =
  with_temp_dir "snapdecode" @@ fun dir ->
  let n = 1400 in
  let reply i =
    Printf.sprintf {|{"accepted":true,"checks":"%s","id":"m%d"}|}
      (String.concat "" (List.init 140 (fun k -> Printf.sprintf "task \"%d\" at %d, " k i)))
      i
  in
  (* the v1 printer's bytes, one element at a time *)
  let piece i =
    if i = 0 then {|{"replies":[|}
    else if i > n then Printf.sprintf {|],"seq":%d,"tasks":[]}|} n
    else begin
      let buf = Buffer.create 4096 in
      if i > 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Wire.Json.add_string buf (Printf.sprintf "\"m%d\"" i);
      Buffer.add_char buf ',';
      Wire.Json.add_string buf (reply i);
      Buffer.add_char buf ']';
      Buffer.contents buf
    end
  in
  let len = ref 0 and crc = ref 0 in
  for i = 0 to n + 1 do
    let p = piece i in
    len := !len + String.length p;
    crc := Admit.Crc32.update !crc p 0 (String.length p)
  done;
  Out_channel.with_open_bin (dir // "snapshot.bin") (fun oc ->
      output_string oc "REDFSNP\x01";
      output_string oc (Admit.Journal.frame_header ~len:!len ~crc:!crc);
      for i = 0 to n + 1 do
        output_string oc (piece i)
      done);
  let payload = !len in
  check_bool (Printf.sprintf "a payload over 4 MB (%d bytes)" payload) true (payload > 4_000_000);
  Gc.compact ();
  let top_bytes () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let before = top_bytes () and allocated = Gc.allocated_bytes () in
  let st, recovery = open_store dir in
  let allocated = Gc.allocated_bytes () -. allocated and raised = top_bytes () - before in
  Admit.Store.close st;
  check_int "the snapshot's seq" n recovery.Admit.Store.snapshot_seq;
  check_int "every v1 reply kept" n (Admit.State.stored_replies (Admit.Store.state st));
  if allocated >= 2.7 *. float payload then
    Alcotest.failf "opening a %d-byte snapshot allocated %.0f bytes" payload allocated;
  if float raised >= 1.65 *. float payload then
    Alcotest.failf "opening a %d-byte snapshot raised the heap's high-water mark by %d bytes"
      payload raised

(* The tree decoder the cursor scan replaced, kept as its reference:
   [Json.of_string], then [Json.member] per field (the first occurrence
   of a key counting), the fields judged in turn.  A state it accepts
   is given as the v2 text the state prints. *)
let reference_snapshot ~version payload =
  let module J = Wire.Json in
  let module M = Map.Make (String) in
  let ( let* ) = Result.bind in
  let int_field json key =
    match J.member key json with
    | Some (J.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "task: %S: expected an integer" key)
  in
  let task json =
    let* name =
      match J.member "name" json with
      | Some (J.String s) -> Ok s
      | _ -> Error "task: \"name\": expected a string"
    in
    let* c = int_field json "C" in
    let* d = int_field json "D" in
    let* t = int_field json "T" in
    let* a = int_field json "A" in
    let tick = Model.Time.of_ticks in
    match Model.Task.make ~name ~exec:(tick c) ~deadline:(tick d) ~period:(tick t) ~area:a () with
    | _ ->
      Ok
        (J.Obj
           [ ("name", J.String name); ("C", J.Int c); ("D", J.Int d); ("T", J.Int t); ("A", J.Int a) ])
    | exception Invalid_argument msg -> Error (Printf.sprintf "task %S: %s" name msg)
  in
  let entries json key ~bad entry =
    match J.member key json with
    | Some (J.List l) ->
      List.fold_left
        (fun acc e ->
          let* m = acc in
          match entry e with Some (rid, v) -> Ok (M.add rid v m) | None -> Error bad)
        (Ok M.empty) l
    | _ -> Error (Printf.sprintf "snapshot: %S: expected an array" key)
  in
  let listed f m = J.List (List.rev (M.fold (fun rid v acc -> f rid v :: acc) m [])) in
  match J.of_string payload with
  | Error msg -> Error ("snapshot: malformed JSON: " ^ msg)
  | Ok json ->
    let* seq =
      match J.member "seq" json with
      | Some (J.Int n) when n >= 0 -> Ok n
      | _ -> Error "snapshot: \"seq\": expected a non-negative integer"
    in
    let* tasks =
      match J.member "tasks" json with
      | Some (J.List l) ->
        List.fold_left
          (fun acc tj ->
            let* acc = acc in
            let* t = task tj in
            Ok (t :: acc))
          (Ok []) l
        |> Result.map List.rev
      | _ -> Error "snapshot: \"tasks\": expected an array"
    in
    let* replies =
      if version = 1 then
        entries json "replies" ~bad:"snapshot: \"replies\": expected [rid, reply] string pairs"
          (function J.List [ J.String rid; J.String r ] -> Some (rid, (seq, r)) | _ -> None)
      else
        entries json "replies" ~bad:"snapshot: \"replies\": expected [rid, seq, reply] entries"
          (function J.List [ J.String rid; J.Int s; J.String r ] -> Some (rid, (s, r)) | _ -> None)
    in
    let* expired =
      if version = 1 then Ok M.empty
      else
        entries json "expired" ~bad:"snapshot: \"expired\": expected [rid, seq] entries"
          (function J.List [ J.String rid; J.Int s ] -> Some (rid, s) | _ -> None)
    in
    Ok
      (J.to_string
         (J.Obj
            [
              ("expired", listed (fun rid s -> J.List [ J.String rid; J.Int s ]) expired);
              ( "replies",
                listed (fun rid (s, r) -> J.List [ J.String rid; J.Int s; J.String r ]) replies );
              ("seq", J.Int seq);
              ("tasks", J.List tasks);
            ]))

(* snapshot payloads of either version, well-formed or not: members
   dropped, repeated, reordered or of the wrong kind, entries of the
   wrong shape, tasks missing a field or breaking a rule, any JSON
   spelling, then in a quarter of them a byte mutated *)
let snapshot_payloads =
  let open QCheck2.Gen in
  let module J = Wire.Json in
  let junk = oneofl [ J.Null; J.Int 5; J.String "x"; J.List []; J.Obj []; J.Bool true ] in
  let rid = map (fun s -> J.String s) (oneofl [ {|"a"|}; "7"; {|"q\"x"|}; "" ]) in
  let reply = map (fun s -> J.String s) (oneofl [ ""; {|{"k":1}|}; "r\n" ]) in
  let seq = map (fun n -> J.Int n) (frequency [ (8, oneofl [ 0; 3; 9 ]); (1, return (-1)) ]) in
  let pair = map2 (fun r x -> J.List [ r; x ]) rid reply in
  let triple = map3 (fun r s x -> J.List [ r; s; x ]) rid seq reply in
  let entry ~shape =
    frequency
      [
        (12, shape);
        (1, map2 (fun r s -> J.List [ r; s ]) rid seq);
        (1, oneof [ pair; triple ]);
        (1, junk);
        (1, map (fun l -> J.List l) (list_size (int_range 0 4) (oneof [ junk; rid; seq ])));
      ]
  in
  let task =
    let field = oneof [ map (fun n -> J.Int n) (oneofl [ 1000; 5000; 0; -2 ]); junk ] in
    frequency
      [
        ( 8,
          map2
            (fun (c, d, t) a ->
              J.Obj
                [
                  ("name", J.String "t"); ("C", J.Int c); ("D", J.Int d); ("T", J.Int t); ("A", J.Int a);
                ])
            (QCheck2.Gen.triple
               (oneofl [ 1000; 2500 ])
               (oneofl [ 5000; 2000 ])
               (oneofl [ 5000; 7000 ]))
            (frequency [ (6, oneofl [ 1; 3 ]); (1, return 0) ]) );
        ( 1,
          map2
            (fun name fields -> J.Obj (("name", name) :: List.combine [ "C"; "D"; "T"; "A" ] fields))
            (oneof [ map (fun s -> J.String s) (oneofl [ "u"; "" ]); junk ])
            (list_repeat 4 field) );
        (1, junk);
      ]
  in
  let array g = map (fun l -> J.List l) (list_size (int_range 0 3) g) in
  let member ~version key =
    let good =
      match key with
      | "seq" -> seq
      | "tasks" -> array task
      | "expired" -> array (entry ~shape:(map2 (fun r s -> J.List [ r; s ]) rid seq))
      | _ -> array (entry ~shape:(if version = 1 then pair else triple))
    in
    map (fun v -> (key, v)) (frequency [ (12, good); (1, junk) ])
  in
  let members ~version =
    let* present =
      flatten_l
        (List.map
           (fun k ->
             map
               (fun keep -> if keep then Some k else None)
               (frequency [ (12, return true); (1, return false) ]))
           [ "expired"; "replies"; "seq"; "tasks" ])
    in
    let* fields = flatten_l (List.map (member ~version) (List.filter_map Fun.id present)) in
    let* extra =
      list_size
        (frequency [ (3, return 0); (1, int_range 1 2) ])
        (oneofl [ "seq"; "tasks"; "replies"; "expired"; "other" ] >>= member ~version)
    in
    shuffle_l (fields @ extra)
  in
  let* version = oneofl [ 1; 2 ] in
  let* text =
    frequency
      [
        (12, members ~version >>= fun m -> Wire_gen.json_text (J.Obj m));
        (1, junk >>= Wire_gen.json_text);
      ]
  in
  let* text = frequency [ (3, return text); (1, Wire_gen.mutate text) ] in
  let* prefix = oneofl [ ""; "REDFSNP\x02\000\001\002\003\004\005\006\007" ] in
  return (version, prefix, text)

(* the cursor decoder, in place after any prefix, gives the tree
   decoder's state or its diagnostic, offsets counted from the payload *)
let snapshot_decode_diagnostics =
  qtest ~count:1000 "snapshot decode == tree decode, diagnostics included" snapshot_payloads
    (fun (version, prefix, text) ->
      let got =
        Admit.State.of_snapshot_string ~version ~pos:(String.length prefix) (prefix ^ text)
        |> Result.map Admit.State.to_snapshot_string
      in
      let want = reference_snapshot ~version text in
      if got <> want then
        QCheck2.Test.fail_reportf "v%d %S:\n  got  %s\n  want %s" version text
          (match got with Ok s | Error s -> s)
          (match want with Ok s | Error s -> s);
      true)

(* each way the snapshot's frame can be wrong keeps its diagnostic *)
let snapshot_frame_errors () =
  with_temp_dir "snapframe" @@ fun dir ->
  let path = dir // "snapshot.bin" in
  let payload = Admit.State.to_snapshot_string Admit.State.empty in
  let framed = Admit.Journal.frame payload in
  let refused what contents want =
    write_file path contents;
    match Admit.Store.open_dir ~dir () with
    | Ok (st, _) ->
      Admit.Store.close st;
      Alcotest.failf "%s: opened" what
    | Error msg -> check_str what want msg
  in
  let len = String.length payload in
  refused "bad magic" ("REDFSNP\x03" ^ framed) (path ^ ": not a redf snapshot (bad magic)");
  refused "short frame"
    (snapshot_magic ^ String.sub framed 0 (Admit.Journal.frame_overhead - 1))
    (path ^ ": not a redf snapshot (bad magic)");
  refused "length mismatch" (snapshot_magic ^ framed ^ "}")
    (Printf.sprintf
       "%s: framed record length mismatch (header says %d, %d bytes follow) — corrupt snapshot"
       path len (len + 1));
  let damaged = String.mapi (fun i c -> if i = len - 2 then 'X' else c) payload in
  refused "CRC mismatch"
    (snapshot_magic ^ String.sub framed 0 Admit.Journal.frame_overhead ^ damaged)
    (Printf.sprintf "%s: CRC mismatch (stored %08x, computed %08x) — corrupt snapshot" path
       (Admit.Crc32.string payload) (Admit.Crc32.string damaged));
  write_file path (snapshot_magic ^ framed);
  let st, recovery = open_store dir in
  Admit.Store.close st;
  check_int "the intact frame opens" 0 recovery.Admit.Store.snapshot_seq

(* strings a JSON printer must escape or pass through: quotes,
   backslashes, control bytes, any byte, UTF-8 *)
let awkward =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 12);
        oneofl [ "q\"uote"; "back\\slash"; "ctl\001\031\n\t"; "caf\xc3\xa9"; "\xe2\x82\xac"; "" ];
      ])

(* a state's history: adds of awkwardly named tasks and removes of
   residents, with awkward ids (or none) and replies, and in half the
   histories one reply longer than a 64 KiB piece of the streamed
   snapshot *)
let history =
  let open QCheck2.Gen in
  let step reply =
    tup5 bool (opt awkward) reply awkward
      (quad (int_range 1 50) (int_range 0 50) (int_range 0 50) (int_range 1 100))
  in
  let long_reply =
    map2
      (fun s k -> String.concat "" (List.init k (fun _ -> s ^ "\"\\\n")))
      awkward (int_range 22_000 30_000)
  in
  let* n = frequency [ (3, int_range 0 20); (2, int_range 20 400); (1, int_range 1000 3000) ] in
  let* steps = list_repeat n (step awkward) in
  let* long = opt (step long_reply) in
  let* at = int_range 0 n in
  return
    (List.filteri (fun i _ -> i < at) steps
    @ Option.to_list long
    @ List.filteri (fun i _ -> i >= at) steps)

let records_of_history steps =
  let residents = ref [] in
  List.mapi
    (fun i (remove, rid, reply, name, (c, d, p, a)) ->
      let seq = i + 1 in
      let op =
        match !residents with
        | _ :: _ as live when remove ->
          let victim = List.nth live (seq mod List.length live) in
          residents := List.filter (fun n -> n <> victim) live;
          Admit.State.Remove victim
        | _ ->
          let name = Printf.sprintf "%s#%d" name seq in
          residents := name :: !residents;
          Admit.State.Add
            (Model.Task.make ~name ~exec:(Model.Time.of_ticks c)
               ~deadline:(Model.Time.of_ticks (c + d))
               ~period:(Model.Time.of_ticks (c + d + p))
               ~area:a ())
      in
      { Admit.State.seq; rid; op; reply })
    steps

(* The file the store writes is the magic and the frame of the tree
   printer's bytes, and reopening the directory reads it back, under a
   dedup window from one mutation to more than any history here *)
let snapshot_streamed =
  qtest ~count:40 "streamed snapshot = framed tree bytes, and reads back"
    QCheck2.Gen.(pair history (oneofl [ 1; 2; 7; 64; 1024; 4096 ]))
    (fun (steps, dedup_window) ->
      with_temp_dir "snapstream" @@ fun dir ->
      let st, _ = open_store ~snapshot_every:max_int ~dedup_window dir in
      let state =
        Fun.protect ~finally:(fun () -> Admit.Store.close st) @@ fun () ->
        commit_all st (records_of_history steps);
        Admit.Store.snapshot st;
        Admit.Store.state st
      in
      let file = In_channel.with_open_bin (dir // "snapshot.bin") In_channel.input_all in
      let want = snapshot_magic ^ Admit.Journal.frame (Admit.State.to_snapshot_string state) in
      if not (String.equal file want) then
        QCheck2.Test.fail_reportf "snapshot file differs: %d bytes, want %d" (String.length file)
          (String.length want);
      let st, recovery = open_store ~dedup_window dir in
      Admit.Store.close st;
      recovery.Admit.Store.replayed = 0 && Admit.State.equal state (Admit.Store.state st))

(* After K mutations, far more than the window W, the state holds the
   replies of the last W and only id -> seq for the K - W before them,
   and the snapshot carries exactly those entries *)
let window_counts () =
  List.iter
    (fun w ->
      with_temp_dir "window" @@ fun dir ->
      let k = (4 * w) + 3 in
      let st, _ = open_store ~snapshot_every:max_int ~dedup_window:w dir in
      Fun.protect ~finally:(fun () -> Admit.Store.close st) @@ fun () ->
      commit_all st (flip_records k (Printf.sprintf "ok-%d"));
      let state = Admit.Store.state st in
      let what = Printf.sprintf "W = %d: %s" w in
      check_int (what "replies held") w (Admit.State.stored_replies state);
      check_int (what "expired ids") (k - w) (Admit.State.expired_ids state);
      let lookup seq = Admit.State.lookup state (Printf.sprintf "\"m%d\"" seq) in
      check_bool (what "the oldest reply kept") true
        (lookup (k - w + 1) = Admit.State.Stored (Printf.sprintf "ok-%d" (k - w + 1)));
      check_bool (what "the newest expired id") true (lookup (k - w) = Admit.State.Expired (k - w));
      check_bool (what "the first id") true (lookup 1 = Admit.State.Expired 1);
      Admit.Store.snapshot st;
      let file = In_channel.with_open_bin (dir // "snapshot.bin") In_channel.input_all in
      let header = String.length snapshot_magic + Admit.Journal.frame_overhead in
      let payload = String.sub file header (String.length file - header) in
      let entries key =
        match Wire.Json.of_string payload with
        | Ok json -> (
          match Wire.Json.member key json with
          | Some (Wire.Json.List l) -> List.length l
          | _ -> Alcotest.failf "no %S array" key)
        | Error msg -> Alcotest.fail msg
      in
      check_int (what "reply entries in the snapshot") w (entries "replies");
      check_int (what "expired entries in the snapshot") (k - w) (entries "expired"))
    [ 1; 64; 1024 ]

(* --- daemon: verdicts, dedup, recovery --- *)

let line fields = Wire.Json.to_string (Wire.Json.Obj fields)

let add_line ?id name c d t a =
  line
    ([ ("op", Wire.Json.String "add-task") ]
    @ (match id with Some id -> [ ("id", id) ] | None -> [])
    @ [
        ( "task",
          Wire.Json.Obj
            [
              ("name", Wire.Json.String name);
              ("C", Wire.Json.String c);
              ("D", Wire.Json.String d);
              ("T", Wire.Json.String t);
              ("A", Wire.Json.Int a);
            ] );
      ])

let field reply name =
  match Wire.Json.of_string reply with
  | Ok json -> Wire.Json.member name json
  | Error msg -> Alcotest.failf "reply is not JSON (%s): %s" msg reply

let with_daemon ?snapshot_every tag f =
  with_temp_dir tag @@ fun dir ->
  match Admit.Daemon.create ?snapshot_every ~analyzer ~fpga_area:100 ~dir () with
  | Error msg -> Alcotest.failf "daemon create: %s" msg
  | Ok (d, _) ->
    Fun.protect ~finally:(fun () -> Admit.Daemon.close d) (fun () -> f dir d)

let daemon_verdict_byte_identity () =
  with_daemon "verdict" (fun _dir d ->
      let reply = Admit.Daemon.handle_line d (add_line ~id:(Wire.Json.Int 1) "tau1" "1.26" "7" "7" 9) in
      check_bool "admitted" true (field reply "admitted" = Some (Wire.Json.Bool true));
      (* the wire verdict is byte-identical to a from-scratch run of the
         same analyzer on the same taskset *)
      let fresh ts =
        Wire.Json.to_string (Core.Verdict.to_json (analyzer.Core.Analyzer.decide ~fpga_area:100 ts))
      in
      let expect_fields reply ts =
        let fresh_json =
          match Wire.Json.of_string (fresh ts) with Ok j -> j | Error e -> Alcotest.fail e
        in
        List.iter
          (fun name ->
            check_bool
              (Printf.sprintf "field %S matches from-scratch" name)
              true
              (field reply name = Wire.Json.member name fresh_json))
          [ "accepted"; "checks" ]
      in
      expect_fields reply (Model.Taskset.of_list [ t1 ]);
      let reply2 = Admit.Daemon.handle_line d (add_line ~id:(Wire.Json.Int 2) "tau2" "0.95" "5" "5" 6) in
      expect_fields reply2 (Model.Taskset.of_list [ t1; t2 ]);
      (* what-if answers for the hypothetical set without mutating *)
      let wi =
        Admit.Daemon.handle_line d
          (line
             [
               ("op", Wire.Json.String "what-if");
               ("drop", Wire.Json.List [ Wire.Json.String "tau1" ]);
             ])
      in
      expect_fields wi (Model.Taskset.of_list [ t2 ]);
      check_int "still two tasks" 2 (Admit.State.size (Admit.Daemon.state d));
      (* an over-area task is rejected and not journaled *)
      let seq_before = Admit.State.seq (Admit.Daemon.state d) in
      let rej = Admit.Daemon.handle_line d (add_line ~id:(Wire.Json.Int 3) "big" "1" "4" "4" 999) in
      check_bool "rejected" true (field rej "admitted" = Some (Wire.Json.Bool false));
      check_int "rejection not journaled" seq_before (Admit.State.seq (Admit.Daemon.state d)))

let daemon_dedup_and_recovery () =
  with_temp_dir "dedup" @@ fun dir ->
  let open_daemon () =
    match Admit.Daemon.create ~analyzer ~fpga_area:10 ~dir () with
    | Error msg -> Alcotest.failf "daemon create: %s" msg
    | Ok (d, recovery) -> (d, recovery)
  in
  let d, _ = open_daemon () in
  let req = add_line ~id:(Wire.Json.String "r1") "tau1" "1.26" "7" "7" 9 in
  let first = Admit.Daemon.handle_line d req in
  (* a retry with the same id returns the stored bytes, applies nothing *)
  check_str "duplicate rid answered with stored bytes" first (Admit.Daemon.handle_line d req);
  check_int "not applied twice" 1 (Admit.State.size (Admit.Daemon.state d));
  Admit.Daemon.close d;
  (* dedup survives recovery: the reply bytes are in the journal *)
  let d, recovery = open_daemon () in
  check_int "one record replayed" 1 recovery.Admit.Store.replayed;
  check_str "dedup across restart" first (Admit.Daemon.handle_line d req);
  check_int "still one task" 1 (Admit.State.size (Admit.Daemon.state d));
  Admit.Daemon.close d

(* Past the dedup window a retried id gets [reply expired (seq S)],
   echoing its id, and is applied no more than inside it: in the batch
   that applies it, after a restart, after a snapshot carries the
   window, and when a smaller window is chosen at the next start *)
let daemon_dedup_window () =
  with_temp_dir "window" @@ fun dir ->
  let open_daemon dedup_window =
    match Admit.Daemon.create ~dedup_window ~analyzer ~fpga_area:100 ~dir () with
    | Error msg -> Alcotest.failf "daemon create: %s" msg
    | Ok (d, _) -> d
  in
  let add i =
    let name = Printf.sprintf "w%d" i in
    add_line ~id:(Wire.Json.String name) name "1" "10" "10" 1
  in
  let expired i seq =
    Printf.sprintf {|{"error":"reply expired (seq %d)","id":"w%d","kind":"error","schema_version":1}|}
      seq i
  in
  let d = open_daemon 2 in
  let first = Admit.Daemon.handle_lines d [| add 1; add 2; add 3; add 1; add 3 |] in
  check_str "w1 past the window" (expired 1 1) first.(3);
  check_str "w3 inside it" first.(2) first.(4);
  let journal = Admit.Store.journal_bytes (Admit.Daemon.store d) in
  let unchanged what =
    check_int (what ^ ": seq") 3 (Admit.State.seq (Admit.Daemon.state d));
    check_int (what ^ ": tasks") 3 (Admit.State.size (Admit.Daemon.state d))
  in
  let retries what d =
    check_str (what ^ ": w1") (expired 1 1) (Admit.Daemon.handle_line d (add 1));
    check_str (what ^ ": w2") first.(1) (Admit.Daemon.handle_line d (add 2));
    check_str (what ^ ": w3") first.(2) (Admit.Daemon.handle_line d (add 3));
    unchanged what
  in
  retries "retried" d;
  check_int "nothing journaled" journal (Admit.Store.journal_bytes (Admit.Daemon.store d));
  Admit.Daemon.close d;
  let d = open_daemon 2 in
  retries "after a restart" d;
  Admit.Store.snapshot (Admit.Daemon.store d);
  Admit.Daemon.close d;
  let d = open_daemon 2 in
  retries "from the snapshot" d;
  Admit.Daemon.close d;
  let d = open_daemon 1 in
  check_str "window 1: w2" (expired 2 2) (Admit.Daemon.handle_line d (add 2));
  check_str "window 1: w3" first.(2) (Admit.Daemon.handle_line d (add 3));
  unchanged "window 1";
  Admit.Daemon.close d

(* A v1 snapshot (test/snapshot_v1.bin, written by the v1 printer after
   eight mutations: six adds and two removes, seven of them with ids)
   opens to its tasks and seq; its replies, which carry no seq, count
   as the snapshot's seq 8: stored bytes while inside the window, then
   [reply expired (seq 8)], and never applied again, through a restart
   and the v2 snapshot that replaces it *)
let v1_snapshot_opens () =
  with_temp_dir "v1" @@ fun dir ->
  let fixture = In_channel.with_open_bin "snapshot_v1.bin" In_channel.input_all in
  write_file (dir // "snapshot.bin") fixture;
  let v1_replies =
    let header = String.length "REDFSNP\x01" + Admit.Journal.frame_overhead in
    match Wire.Json.of_string (String.sub fixture header (String.length fixture - header)) with
    | Ok json -> (
      match Wire.Json.member "replies" json with
      | Some (Wire.Json.List l) ->
        List.map
          (function
            | Wire.Json.List [ Wire.Json.String rid; Wire.Json.String reply ] -> (rid, reply)
            | _ -> Alcotest.fail "a v1 reply pair")
          l
      | _ -> Alcotest.fail "no v1 replies")
    | Error msg -> Alcotest.fail msg
  in
  check_int "seven v1 replies" 7 (List.length v1_replies);
  let open_daemon () =
    match Admit.Daemon.create ~dedup_window:2 ~analyzer ~fpga_area:100 ~dir () with
    | Error msg -> Alcotest.failf "daemon create: %s" msg
    | Ok (d, recovery) -> (d, recovery)
  in
  (* a retry names no task it could add: only its id is looked up *)
  let retry d rid =
    Admit.Daemon.handle_line d (Printf.sprintf {|{"op":"remove-task","id":%s,"name":"a"}|} rid)
  in
  (* the v1 snapshot's four tasks, then the adds made here *)
  let state what d ~seq =
    check_int (what ^ ": seq") seq (Admit.State.seq (Admit.Daemon.state d));
    Alcotest.(check (list string)) (what ^ ": tasks")
      ([ "c"; "d"; "e"; "f" ] @ if seq > 8 then [ "g1"; "g2" ] else [])
      (Admit.State.names (Admit.Daemon.state d))
  in
  let d, recovery = open_daemon () in
  check_int "the v1 snapshot's seq" 8 recovery.Admit.Store.snapshot_seq;
  state "opened" d ~seq:8;
  List.iter (fun (rid, reply) -> check_str ("stored " ^ rid) reply (retry d rid)) v1_replies;
  state "retried inside the window" d ~seq:8;
  List.iter
    (fun name ->
      let reply =
        Admit.Daemon.handle_line d (add_line ~id:(Wire.Json.String name) name "1" "10" "10" 1)
      in
      check_bool ("admitted " ^ name) true (field reply "admitted" = Some (Wire.Json.Bool true)))
    [ "g1"; "g2" ];
  let expired what d =
    List.iter
      (fun (rid, _) ->
        let reply = retry d rid in
        check_bool (what ^ ": expired " ^ rid) true
          (field reply "error" = Some (Wire.Json.String "reply expired (seq 8)")
          && Option.map Wire.Json.to_string (field reply "id") = Some rid))
      v1_replies;
    state what d ~seq:10
  in
  expired "past the window" d;
  Admit.Daemon.close d;
  let d, _ = open_daemon () in
  expired "after a restart" d;
  Admit.Store.snapshot (Admit.Daemon.store d);
  Admit.Daemon.close d;
  check_bool "rewritten as v2" true
    (String.starts_with ~prefix:snapshot_magic
       (In_channel.with_open_bin (dir // "snapshot.bin") In_channel.input_all));
  let d, _ = open_daemon () in
  expired "from the v2 snapshot" d;
  Admit.Daemon.close d

let daemon_replays_long_journal () =
  (* a journal far longer than any snapshot interval the other tests
     use: every record replays on a cold open, none is lost or doubled *)
  let records = 10_000 in
  with_temp_dir "replay" @@ fun dir ->
  let final =
    match Admit.Store.open_dir ~snapshot_every:(records + 1) ~dir () with
    | Error msg -> Alcotest.failf "open_dir: %s" msg
    | Ok (st, _) ->
      for seq = 1 to records do
        let op =
          if seq mod 2 = 1 then Admit.State.Add (task "flip" "1" "9" "9" 1)
          else Admit.State.Remove "flip"
        in
        match
          Admit.Store.commit ~fsync:false st
            { Admit.State.seq; rid = Some (string_of_int seq); op; reply = "ok-" ^ string_of_int seq }
        with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "commit %d: %s" seq msg
      done;
      let final = Admit.Store.state st in
      Admit.Store.close st;
      final
  in
  match Admit.Daemon.create ~snapshot_every:(records + 1) ~analyzer ~fpga_area:100 ~dir () with
  | Error msg -> Alcotest.failf "daemon create: %s" msg
  | Ok (d, recovery) ->
    Fun.protect ~finally:(fun () -> Admit.Daemon.close d) (fun () ->
        check_int "every record replayed" records recovery.Admit.Store.replayed;
        check_bool "recovered ≡ final" true (Admit.State.equal final (Admit.Daemon.state d)))

(* --- hostile input: random and byte-mutated admit lines --- *)

(* admit lines as a client spells them (names from a small pool, so
   removes, duplicates and what-if drops meet admitted tasks; ids from
   a small pool, so retries meet stored replies), with their members
   in any order, some keys repeated, tasks and drop elements of the
   wrong kind, then mutated like the service's request lines *)
let admit_lines =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d"; ""; "q\"\\" ] in
  let quoted = map (fun n -> Wire.Json.to_string (Wire.Json.String n)) name in
  let time =
    frequency
      [
        (6, oneofl [ {|"1.26"|}; {|"0.5"|}; "7"; "5"; {|"12"|}; "1" ]);
        (1, oneofl [ {|"0"|}; {|"x"|}; "-3"; {|"0.0001"|}; "null" ]);
      ]
  in
  let task =
    frequency
      [
        ( 6,
          map3
            (fun n (c, d, t) a ->
              Printf.sprintf {|{"name":%s,"C":%s,"D":%s,"T":%s,"A":%d}|} n c d t a)
            quoted (triple time time time)
            (frequency [ (6, int_range 1 40); (1, int_range (-1) 120) ]) );
        (1, oneofl [ "null"; "7"; {|"a"|}; "[]"; "{}" ]);
      ]
  in
  let array item =
    map (fun l -> "[" ^ String.concat "," l ^ "]") (list_size (int_range 0 2) item)
  in
  let value = function
    | "op" ->
      oneofl [ {|"add-task"|}; {|"remove-task"|}; {|"query"|}; {|"what-if"|}; {|"nope"|}; "1" ]
    | "id" -> oneofl [ "1"; {|"r\"2"|}; "3"; "null"; "[4]" ]
    | "task" -> task
    | "name" -> frequency [ (4, quoted); (1, oneofl [ "null"; "[]" ]) ]
    | "add" -> frequency [ (4, array task); (1, oneofl [ "{}"; {|"a"|} ]) ]
    | _ (* drop *) ->
      let element = frequency [ (4, quoted); (1, oneofl [ "1"; "null"; {|["a"]|} ]) ] in
      frequency [ (4, array element); (1, return "7") ]
  in
  let member key = map (fun v -> Printf.sprintf {|"%s":%s|} key v) (value key) in
  let op o = return (Printf.sprintf {|"op":"%s"|} o) in
  let body =
    oneof
      [
        flatten_l [ oneof [ op "add-task"; op "remove-task" ]; member "task" ];
        flatten_l [ op "remove-task"; member "name" ];
        flatten_l [ op "query" ];
        flatten_l [ op "what-if"; member "add"; member "drop" ];
        flatten_l [ op "what-if"; oneof [ member "add"; member "drop" ] ];
        flatten_l [ op "nope" ];
      ]
  in
  let repeated =
    list_size
      (frequency [ (3, return 0); (1, int_range 1 2) ])
      (oneofl [ "op"; "id"; "task"; "name"; "add"; "drop" ] >>= member)
  in
  let line =
    let* body = body and* id = opt ~ratio:0.8 (member "id") and* repeated = repeated in
    let* members = shuffle_l (body @ Option.to_list id @ repeated) in
    return ("{" ^ String.concat "," members ^ "}")
  in
  frequency
    [ (4, line); (2, line >>= Wire_gen.mutate); (1, string_size ~gen:char (int_range 0 40)) ]

(* the daemon and [Admit_reference], the tree-decoding handler it
   replaced, each from an empty state over the same lines: the same
   bytes for every line, and the same mutation verdict *)
let admit_fuzz () =
  with_daemon "fuzz" (fun _dir d ->
      with_temp_dir "fuzz-reference" @@ fun dir ->
      let reference =
        match Admit_reference.create ~analyzer ~fpga_area:100 ~dir () with
        | Ok (r, _) -> r
        | Error msg -> Alcotest.failf "reference create: %s" msg
      in
      Fun.protect ~finally:(fun () -> Admit_reference.close reference) @@ fun () ->
      let journal () = Admit.Store.journal_bytes (Admit.Daemon.store d) in
      let seq () = Admit.State.seq (Admit.Daemon.state d) in
      let rejected reply =
        match Wire.Json.of_string reply with
        | Ok json ->
          Wire.Json.member "kind" json = Some (Wire.Json.String "error")
          || Wire.Json.member "admitted" json = Some (Wire.Json.Bool false)
        | Error _ -> false
      in
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:2000 ~name:"admit handle_line on hostile lines"
           ~print:(Printf.sprintf "%S") admit_lines (fun line ->
             let bytes = journal () and seq0 = seq () in
             match Admit.Daemon.handle_line d line with
             | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)
             | reply ->
               if String.contains reply '\n' then QCheck2.Test.fail_report "more than one line";
               (match Wire.Json.of_string reply with
                | Ok (Wire.Json.Obj _) -> ()
                | Ok _ | Error _ -> QCheck2.Test.fail_reportf "reply is not a JSON object: %S" reply);
               let want = Admit_reference.handle_line reference line in
               if not (String.equal reply want) then
                 QCheck2.Test.fail_reportf "reply differs from the reference:\n  got  %s\n  want %s"
                   reply want;
               if Admit.Daemon.is_mutation line <> Admit_reference.is_mutation line then
                 QCheck2.Test.fail_report "is_mutation differs from the reference";
               (not (rejected reply)) || (journal () = bytes && seq () = seq0))))

(* --- admit-churn scale: the daemon against the reference handler --- *)

(* names a JSON string escapes (quote, backslash, control bytes) and
   one it passes through (UTF-8) *)
let escaped_names = [| "q\"uote"; "back\\slash"; "tab\tname"; "new\nline"; "ctl\001"; "caf\xc3\xa9" |]

(* One seeded stream of well-formed ops, driven into the daemon and
   into [Admit_reference] from the same empty state: queries and
   what-ifs on the empty set, a fill to 24 residents at A(H) = 100,
   then churn that keeps 20–32 residents, then a drain back to the
   empty set.  The churn mixes queries; what-ifs that add and drop
   together; admitted adds, and adds rejected as wider than the device
   or as an overload; removes, and rounds that remove a task and add it
   back, so the same canonical set is asked for in another admission
   order and a cache hit is remapped; and retries by id of acknowledged
   and of rejected mutations.  After each op the replies, the seq and
   the journal size must agree, and at the end the journal and snapshot
   files.

   [batched] drives the daemon through [handle_lines] in seeded batches
   of 1–8 lines, the reference still one line at a time; the replies
   must agree, the seq and journal size after each batch, and the files
   at the end. *)
let churn ~batched () =
  let module Json = Wire.Json in
  with_temp_dir "churn" @@ fun dir ->
  let snapshot_every = 128 in
  let d =
    match
      Admit.Daemon.create ~snapshot_every ~analyzer ~fpga_area:100 ~dir:(dir // "daemon") ()
    with
    | Ok (d, _) -> d
    | Error msg -> Alcotest.failf "daemon create: %s" msg
  in
  Fun.protect ~finally:(fun () -> Admit.Daemon.close d) @@ fun () ->
  let r =
    match
      Admit_reference.create ~snapshot_every ~analyzer ~fpga_area:100 ~dir:(dir // "reference") ()
    with
    | Ok (r, _) -> r
    | Error msg -> Alcotest.failf "reference create: %s" msg
  in
  Fun.protect ~finally:(fun () -> Admit_reference.close r) @@ fun () ->
  let rng = Random.State.make [| 30 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  (* a name always spells the same light task *)
  let pool =
    List.init 48 (fun i ->
        let name =
          if i < Array.length escaped_names then escaped_names.(i) else Printf.sprintf "t%d" i
        in
        let c = 5 * (1 + Random.State.int rng 12) in
        let t = string_of_int (5 + Random.State.int rng 16) in
        (name, Printf.sprintf "0.%02d" c, t, t, 1 + Random.State.int rng 8))
  in
  let task_json (name, c, d, t, a) =
    Json.Obj
      [
        ("name", Json.String name); ("C", Json.String c); ("D", Json.String d); ("T", Json.String t);
        ("A", Json.Int a);
      ]
  in
  let residents () = Admit.State.names (Admit_reference.state r) in
  let absent () = List.filter (fun (n, _, _, _, _) -> not (List.mem n (residents ()))) pool in
  let resident_tasks () = List.filter (fun (n, _, _, _, _) -> List.mem n (residents ())) pool in
  let ids = ref 0 in
  let next_id () =
    incr ids;
    match !ids mod 3 with
    | 0 -> Json.String (Printf.sprintf "m%d" !ids)
    | 1 -> Json.Int !ids
    | _ -> Json.String (Printf.sprintf "m\"%d\\" !ids)
  in
  let tally = Hashtbl.create 16 in
  let sent_as what = Option.value ~default:0 (Hashtbl.find_opt tally what) in
  let sent = ref 0 in
  (* the lines the daemon has not seen yet: (op number, what, line, the
     reference's reply), newest first *)
  let queued = ref [] in
  let sizes = Random.State.make [| 33 |] in
  let batch = ref 1 in
  let flush () =
    let lines = List.rev !queued in
    queued := [];
    let got =
      if batched then
        Admit.Daemon.handle_lines d (Array.of_list (List.map (fun (_, _, l, _) -> l) lines))
      else Array.of_list (List.map (fun (_, _, l, _) -> Admit.Daemon.handle_line d l) lines)
    in
    List.iteri
      (fun i (n, what, line, want) ->
        if not (String.equal got.(i) want) then
          Alcotest.failf "op %d (%s) %s:\n  got  %s\n  want %s" n what line got.(i) want)
      lines;
    let n, what, line, _ = List.hd (List.rev lines) in
    let agree thing a b =
      if a <> b then Alcotest.failf "op %d (%s) %s: %s differs" n what line thing
    in
    agree "seq" (Admit.State.seq (Admit.Daemon.state d)) (Admit.State.seq (Admit_reference.state r));
    agree "the journal size"
      (Admit.Store.journal_bytes (Admit.Daemon.store d))
      (Admit.Store.journal_bytes (Admit_reference.store r));
    if batched then batch := 1 + Random.State.int sizes 8
  in
  let send what fields =
    let line = line fields in
    Hashtbl.replace tally what (sent_as what + 1);
    incr sent;
    let want = Admit_reference.handle_line r line in
    queued := (!sent, what, line, want) :: !queued;
    if List.length !queued >= !batch then flush ();
    want
  in
  (* every mutation line sent, acknowledged or not *)
  let acknowledged = ref [] and unacknowledged = ref [] in
  let mutate what fields =
    let reply = send what fields in
    let list = if field reply "admitted" = Some (Json.Bool true) then acknowledged else unacknowledged in
    list := fields :: !list;
    reply
  in
  let with_id fields = ("id", next_id ()) :: fields in
  let add ?(what = "add") task =
    mutate what (with_id [ ("op", Json.String "add-task"); ("task", task_json task) ])
  in
  let remove name =
    mutate "remove" (with_id [ ("op", Json.String "remove-task"); ("name", Json.String name) ])
  in
  let query what =
    let fields = [ ("op", Json.String "query") ] in
    ignore (send what (if Random.State.bool rng then with_id fields else fields))
  in
  let what_if what ~add ~drop =
    let fields =
      (if add = [] then [] else [ ("add", Json.List (List.map task_json add)) ])
      @ (if drop = [] then [] else [ ("drop", Json.List (List.map (fun n -> Json.String n) drop)) ])
    in
    ignore (send what (with_id (("op", Json.String "what-if") :: fields)))
  in
  let rejected what reply =
    if field reply "admitted" <> Some (Json.Bool false) then
      Alcotest.failf "%s must be rejected: %s" what reply
  in
  (* the empty set *)
  query "query (empty)";
  query "query (empty)";
  what_if "what-if (empty)" ~add:[] ~drop:[];
  what_if "what-if add (empty)" ~add:[ pick pool ] ~drop:[];
  ignore (remove (match pick pool with name, _, _, _, _ -> name));
  (* the fill, escaped names first *)
  List.iteri
    (fun i task ->
      if i < 24 then begin
        ignore (add task);
        if i mod 4 = 3 then query "query"
      end)
    pool;
  (* the churn *)
  while !sent < 1100 do
    let size = List.length (residents ()) in
    let roll = Random.State.int rng 100 in
    if size < 20 || (roll < 8 && size < 32) then ignore (add (pick (absent ())))
    else if size > 32 || roll < 14 then ignore (remove (pick (residents ())))
    else if roll < 26 then begin
      (* the set S, then S without x, then S again with x last *)
      let x = pick (resident_tasks ()) in
      let name, _, _, _, _ = x in
      query "query";
      ignore (remove name);
      query "query";
      what_if "what-if add" ~add:[ pick (absent ()) ] ~drop:[];
      ignore (add ~what:"re-add" x);
      query "query"
    end
    else if roll < 30 then
      rejected "a wide task"
        (add ~what:"add wide" ("wide", "1", "4", "4", 101 + Random.State.int rng 50))
    else if roll < 34 then
      rejected "an overload" (add ~what:"add overload" ("hog", "1", "1", "1", 100))
    else if roll < 40 then ignore (send "retry acknowledged" (pick !acknowledged))
    else if roll < 44 then ignore (send "retry rejected" (pick !unacknowledged))
    else if roll < 66 then query "query"
    else if roll < 86 then
      let some l = List.sort_uniq compare (List.init (1 + Random.State.int rng 2) (fun _ -> pick l)) in
      what_if "what-if add+drop" ~add:(some (absent ())) ~drop:(some (residents ()))
    else if roll < 93 then what_if "what-if add" ~add:[ pick (absent ()) ] ~drop:[]
    else what_if "what-if drop" ~add:[] ~drop:[ pick (residents ()) ]
  done;
  (* the drain *)
  List.iter (fun name -> ignore (remove name)) (residents ());
  query "query (empty)";
  what_if "what-if (empty)" ~add:[] ~drop:[];
  let at_least what n =
    if sent_as what < n then
      Alcotest.failf "the stream sent %d %S ops (want >= %d)" (sent_as what) what n
  in
  List.iter
    (fun (what, n) -> at_least what n)
    [
      ("query", 200); ("query (empty)", 3); ("what-if (empty)", 2); ("what-if add+drop", 100);
      ("what-if add", 50); ("what-if drop", 20); ("add", 50); ("remove", 100); ("re-add", 40);
      ("add wide", 10); ("add overload", 10); ("retry acknowledged", 20); ("retry rejected", 10);
    ];
  check_bool "at least 1,000 ops" true (!sent >= 1000);
  if !queued <> [] then flush ();
  let read sub file =
    let path = dir // sub // file in
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  check_bool "a snapshot rotated" true (read "daemon" "snapshot.bin" <> "");
  check_str "journal file" (read "reference" "journal.wal") (read "daemon" "journal.wal");
  check_str "snapshot file" (read "reference" "snapshot.bin") (read "daemon" "snapshot.bin")

(* Group commit, counted: a batch with several admitted mutations
   fsyncs the journal once, a batch that journals nothing (reads,
   rejections, retries) not at all, and [handle_line] once per admitted
   mutation. *)
let group_commit_fsyncs () =
  let module Json = Wire.Json in
  let fsyncs = Obs.Counter.make ~det:false "admit.journal.fsyncs" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  with_daemon "fsyncs" (fun _dir d ->
      let counted f =
        let before = Obs.Counter.value fsyncs in
        let replies = f () in
        (Obs.Counter.value fsyncs - before, replies)
      in
      let admitted reply = field reply "admitted" = Some (Json.Bool true) in
      let add i = add_line ~id:(Json.Int i) (Printf.sprintf "g%d" i) "0.1" "10" "10" 1 in
      let query = line [ ("op", Json.String "query") ] in
      let n, replies =
        counted (fun () -> Admit.Daemon.handle_lines d [| add 1; query; add 2; add 3 |])
      in
      check_bool "three admitted" true
        (admitted replies.(0) && admitted replies.(2) && admitted replies.(3));
      check_int "a batch of three admitted mutations fsyncs once" 1 n;
      let n, replies =
        counted (fun () ->
            Admit.Daemon.handle_lines d
              [|
                query;
                line [ ("op", Json.String "what-if"); ("drop", Json.List [ Json.String "g1" ]) ];
                add_line ~id:(Json.Int 9) "wide" "1" "4" "4" 101;
                add 2;
              |])
      in
      check_bool "the wide add rejected" true
        (field replies.(2) "admitted" = Some (Json.Bool false));
      check_str "the retry answered from the journal" (Admit.Daemon.handle_line d (add 2))
        replies.(3);
      check_int "a batch that journals nothing fsyncs not at all" 0 n;
      let one l = fst (counted (fun () -> Admit.Daemon.handle_line d l)) in
      check_int "handle_line: an add" 1 (one (add 4));
      check_int "handle_line: a remove" 1
        (one
           (line
              [ ("op", Json.String "remove-task"); ("id", Json.Int 5); ("name", Json.String "g4") ]));
      check_int "handle_line: a query" 0 (one query);
      check_int "handle_line: a rejected add" 0
        (one (add_line ~id:(Json.Int 6) "wide" "1" "4" "4" 101));
      check_int "seq" 5 (Admit.State.seq (Admit.Daemon.state d)))

(* The chaos harness (test/chaos.ml) on seven fixed runs: a short one
   at A(H) = 10, two 50-lifetime runs at A(H) = 100 (the default fault
   mix, and a heavier one), a 12-lifetime run, and three 50-lifetime
   runs in batches through [handle_lines] (the default mix plus torn
   batch fsyncs; torn batch fsyncs alone with a rotation every 4
   records, so rotations fall inside batches; and the default mix plus
   torn batch fsyncs under a dedup window of 8 mutations with a
   rotation every 5, so most retries reach ids past the window, from
   earlier lifetimes too).  Each row pins the run's stats, so a change
   in the traffic the harness drives, or in what recovery replays,
   fails the row even when no invariant breaks. *)
let chaos_rows =
  let at_100 = { (Chaos.default ~analyzer ~fpga_area:100) with Chaos.snapshot_every = 1024 } in
  let heavy =
    match Admit.Faults.parse_spec "torn=120,fsync=80,after-append=120" with
    | Ok spec -> spec
    | Error msg -> failwith msg
  in
  let batch_spec = { Chaos.default_spec with Admit.Faults.torn_sync = 60 } in
  let torn_syncs =
    { Admit.Faults.torn_append = 0; fsync_fail = 0; crash_after_append = 0; torn_sync = 150 }
  in
  let stats ?(expired_hits = 0) cycles crashes torn_recoveries replayed ops admitted rejected
      dedup_hits verdicts_checked =
    {
      Chaos.cycles;
      crashes;
      torn_recoveries;
      replayed;
      ops;
      admitted;
      rejected;
      dedup_hits;
      expired_hits;
      verdicts_checked;
    }
  in
  [
    ( "6 x 25 ops at A(H) = 10",
      { (Chaos.default ~analyzer ~fpga_area:10) with Chaos.cycles = 6; ops_per_cycle = 25 },
      stats 6 4 2 89 112 38 33 3 115 );
    ("seed 7", { at_100 with Chaos.seed = 7 }, stats 50 47 13 7780 846 257 280 35 850);
    ( "seed 1234, heavy faults",
      { at_100 with Chaos.seed = 1234; spec = heavy },
      stats 50 50 26 3624 438 120 127 9 439 );
    ("seed 42", { at_100 with Chaos.seed = 42; cycles = 12 }, stats 12 12 7 382 165 51 52 10 166);
    ( "batches, seed 11",
      { at_100 with Chaos.seed = 11; batches = true; spec = batch_spec },
      stats 50 46 16 4005 836 134 176 157 556 );
    ( "batches rotating every 4, torn syncs only, seed 5",
      { at_100 with Chaos.seed = 5; batches = true; spec = torn_syncs; snapshot_every = 4 },
      stats 50 35 35 55 1305 308 330 194 1004 );
    ( "batches past a dedup window of 8, rotating every 5, seed 3",
      {
        at_100 with
        Chaos.seed = 3;
        batches = true;
        spec = batch_spec;
        snapshot_every = 5;
        dedup_window = 8;
      },
      stats ~expired_hits:118 50 42 15 119 1059 172 267 80 742 );
  ]

let chaos_smoke () =
  let stats_t = Alcotest.testable Chaos.pp_stats ( = ) in
  List.iter
    (fun (row, cfg, expected) ->
      with_temp_dir "chaos" @@ fun dir ->
      match Chaos.run ~dir cfg with
      | Error msg -> Alcotest.failf "chaos %s: %s" row msg
      | Ok stats -> Alcotest.check stats_t ("chaos " ^ row) expected stats)
    chaos_rows;
  (* an unusable state directory is a setup failure, not a violation *)
  with_temp_dir "chaos-setup" @@ fun dir ->
  let file = dir // "afile" in
  write_file file "";
  match Chaos.run ~dir:file (Chaos.default ~analyzer ~fpga_area:10) with
  | exception Chaos.Setup _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "an unusable directory must raise Chaos.Setup"

let () =
  Alcotest.run "admit"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick crc32_known_answers;
          Alcotest.test_case "incremental" `Quick crc32_incremental;
        ] );
      ( "journal",
        [
          frame_roundtrip;
          Alcotest.test_case "unframe rejects corruption" `Quick unframe_rejects_corruption;
          Alcotest.test_case "truncation policy, every byte" `Quick truncation_policy_exhaustive;
          truncation_policy_random;
          Alcotest.test_case "corrupt interior rejected" `Quick corrupt_interior_rejected;
        ] );
      ( "state",
        [
          Alcotest.test_case "apply rules" `Quick state_apply_rules;
          Alcotest.test_case "record replay rules" `Quick record_replay_rules;
          Alcotest.test_case "codec roundtrips" `Quick codec_roundtrips;
        ] );
      ( "store",
        [
          Alcotest.test_case "recovers after rotation" `Quick store_recovers_after_rotation;
          Alcotest.test_case "refuses an unusable dir" `Quick store_refuses_unusable_dir;
          Alcotest.test_case "snapshot read without a tree" `Quick snapshot_decode_memory;
          Alcotest.test_case "snapshot written a piece at a time" `Quick snapshot_memory;
          Alcotest.test_case "snapshot frame errors keep their messages" `Quick
            snapshot_frame_errors;
          snapshot_streamed;
          snapshot_decode_diagnostics;
          Alcotest.test_case "the window holds the last W replies" `Quick window_counts;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "verdict byte-identity" `Quick daemon_verdict_byte_identity;
          Alcotest.test_case "dedup and recovery" `Quick daemon_dedup_and_recovery;
          Alcotest.test_case "retries past the dedup window" `Quick daemon_dedup_window;
          Alcotest.test_case "a v1 snapshot opens" `Quick v1_snapshot_opens;
          Alcotest.test_case "replays a 10^4-record journal" `Quick daemon_replays_long_journal;
          Alcotest.test_case "chaos smoke" `Quick chaos_smoke;
          Alcotest.test_case "hostile lines" `Quick admit_fuzz;
          Alcotest.test_case "churn matches the reference" `Quick (churn ~batched:false);
          Alcotest.test_case "churn in batches matches the reference" `Quick (churn ~batched:true);
          Alcotest.test_case "one fsync per batch that journals" `Quick group_commit_fsyncs;
        ] );
    ]
