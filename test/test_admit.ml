(* Tests for the crash-safe admission stack: CRC framing, the
   journal's torn-tail/corrupt-interior recovery policy (exhaustively,
   at every byte boundary of the last record), state/record codecs and
   idempotent replay, snapshot rotation through the store, the
   daemon's verdict byte-identity against a from-scratch analyzer run,
   request-id dedup, a cold replay of a 10^4-record journal, four
   fixed-seed chaos runs, random and byte-mutated lines, none of which
   may raise, answer other than one line, journal a rejection, or
   answer other bytes than test/admit_reference.ml, and a seeded
   stream of well-formed ops at admit-churn's scale held to that
   reference byte for byte. *)

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
   files. *)
let churn_matches_reference () =
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
  let residents () = Admit.State.names (Admit.Daemon.state d) in
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
  let send what fields =
    let line = line fields in
    Hashtbl.replace tally what (sent_as what + 1);
    incr sent;
    let got = Admit.Daemon.handle_line d line in
    let want = Admit_reference.handle_line r line in
    if not (String.equal got want) then
      Alcotest.failf "op %d (%s) %s:\n  got  %s\n  want %s" !sent what line got want;
    let agree thing a b =
      if a <> b then Alcotest.failf "op %d (%s) %s: %s differs" !sent what line thing
    in
    agree "seq" (Admit.State.seq (Admit.Daemon.state d)) (Admit.State.seq (Admit_reference.state r));
    agree "the journal size"
      (Admit.Store.journal_bytes (Admit.Daemon.store d))
      (Admit.Store.journal_bytes (Admit_reference.store r));
    got
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
  let read sub file =
    let path = dir // sub // file in
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  check_bool "a snapshot rotated" true (read "daemon" "snapshot.bin" <> "");
  check_str "journal file" (read "reference" "journal.wal") (read "daemon" "journal.wal");
  check_str "snapshot file" (read "reference" "snapshot.bin") (read "daemon" "snapshot.bin")

(* The chaos harness (test/chaos.ml) on four fixed runs: a short one
   at A(H) = 10, two 50-lifetime runs at A(H) = 100 (the default fault
   mix, and a heavier one), and a 12-lifetime run.  Each row pins the
   run's stats, so a change in the traffic the harness drives, or in
   what recovery replays, fails the row even when no invariant breaks. *)
let chaos_rows =
  let at_100 = { (Chaos.default ~analyzer ~fpga_area:100) with Chaos.snapshot_every = 1024 } in
  let heavy =
    match Admit.Faults.parse_spec "torn=120,fsync=80,after-append=120" with
    | Ok spec -> spec
    | Error msg -> failwith msg
  in
  let stats cycles crashes torn_recoveries replayed ops admitted rejected dedup_hits
      verdicts_checked =
    {
      Chaos.cycles;
      crashes;
      torn_recoveries;
      replayed;
      ops;
      admitted;
      rejected;
      dedup_hits;
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
        ] );
      ( "daemon",
        [
          Alcotest.test_case "verdict byte-identity" `Quick daemon_verdict_byte_identity;
          Alcotest.test_case "dedup and recovery" `Quick daemon_dedup_and_recovery;
          Alcotest.test_case "replays a 10^4-record journal" `Quick daemon_replays_long_journal;
          Alcotest.test_case "chaos smoke" `Quick chaos_smoke;
          Alcotest.test_case "hostile lines" `Quick admit_fuzz;
          Alcotest.test_case "churn matches the reference" `Quick churn_matches_reference;
        ] );
    ]
