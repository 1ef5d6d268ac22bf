(* Tests for the analysis service: wire-format parsing, the column
   decoder and the rendered-verdict writer against the tree code they
   replaced (test/protocol_reference.ml), request
   isolation (a bad line yields an error response, never an
   exception), ordered and worker-count-independent batch evaluation,
   the framing state machine (line cap, partial-line deadline, and the
   rule that framing errors never swallow neighbouring requests), and
   full client/server roundtrips through the event loop over stdio
   pipes, Unix-domain and TCP sockets. *)

open Core_helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let table1 =
  taskset [ ("tau1", "1.26", "7", "7", 9); ("tau2", "0.95", "5", "5", 6) ]

let request ?id ?(analyzer = "GN2") ?(fpga_area = 10) ts =
  Server.Protocol.request_line ~analyzer ~fpga_area ?id ts

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* --- protocol --- *)

let parse_roundtrip () =
  match Server.Protocol.parse (request ~id:(Wire.Json.Int 7) table1) with
  | Error (_, msg) -> Alcotest.failf "parse failed: %s" msg
  | Ok req ->
    check_str "analyzer" "GN2" req.Server.Protocol.analyzer.Core.Analyzer.name;
    check_int "area" 10 req.Server.Protocol.fpga_area;
    check_bool "id" true (req.Server.Protocol.id = Some (Wire.Json.Int 7));
    check_str "taskset survives" (Model.Taskset.to_csv table1)
      (Model.Taskset.to_csv req.Server.Protocol.taskset)

let parse_errors () =
  let fails ?id what line needle =
    match Server.Protocol.parse line with
    | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" what
    | Error (got_id, msg) ->
      check_bool (what ^ ": id recovered") true (got_id = id);
      check_bool
        (Printf.sprintf "%s: %S mentions %S" what msg needle)
        true (contains ~needle msg)
  in
  fails "garbage" "not json {" "malformed JSON";
  fails "non-object" "[1,2]" "must be a JSON object";
  fails "missing analyzer" {|{"fpga_area":10,"tasks":[{"C":1,"D":2,"T":2,"A":1}]}|} "\"analyzer\"";
  fails "unknown analyzer" ~id:(Wire.Json.Int 3)
    {|{"id":3,"analyzer":"nope","fpga_area":10,"tasks":[{"C":1,"D":2,"T":2,"A":1}]}|}
    "unknown analyzer";
  fails "bad area" {|{"analyzer":"DP","fpga_area":0,"tasks":[{"C":1,"D":2,"T":2,"A":1}]}|}
    "\"fpga_area\"";
  fails "empty tasks" {|{"analyzer":"DP","fpga_area":10,"tasks":[]}|} "must not be empty";
  fails "missing C" {|{"analyzer":"DP","fpga_area":10,"tasks":[{"D":2,"T":2,"A":1}]}|} "\"C\"";
  fails "float time" {|{"analyzer":"DP","fpga_area":10,"tasks":[{"C":1.5,"D":2,"T":2,"A":1}]}|}
    "malformed JSON"

let shed_response () =
  let line = request ~id:(Wire.Json.String "c1-r2") table1 in
  let resp = Server.Protocol.shed_response line in
  (match Wire.Json.of_string resp with
   | Ok json ->
     check_bool "kind is error" true (Wire.Json.member "kind" json = Some (Wire.Json.String "error"));
     check_bool "id echoed" true
       (Wire.Json.member "id" json = Some (Wire.Json.String "c1-r2"));
     check_bool "message" true
       (Wire.Json.member "error" json
       = Some (Wire.Json.String "server overloaded: request shed"))
   | Error msg -> Alcotest.failf "shed response is not JSON: %s" msg);
  check_bool "unrecoverable id" true
    (Server.Protocol.request_id "not json {" = None)

(* --- framing --- *)

(* all clock inputs are explicit, so these run with a fake clock *)
let items = Alcotest.(check (list string)) "items"

let show = function
  | Server.Framing.Line l -> Printf.sprintf "line:%s" (if String.length l > 12 then "big" else l)
  | Server.Framing.Too_large _ -> "too_large"
  | Server.Framing.Timed_out -> "timed_out"

let feed f ~now s = List.map show (Server.Framing.feed f ~now s)

let framing_order_before_overflow () =
  (* complete lines extracted from a chunk are answered even when the
     same chunk ends in an oversized partial (the drop_partial bug) *)
  let f = Server.Framing.create ~max_line_bytes:8 () in
  items [ "line:a"; "line:b"; "too_large" ] (feed f ~now:0.0 "a\nb\nxxxxxxxxxx");
  (* the dropped line's remaining bytes are swallowed through its
     terminating newline; the stream then resumes *)
  items [] (feed f ~now:0.0 "yyy");
  items [ "line:c" ] (feed f ~now:0.0 "yyy\nc\n")

let framing_cap_on_complete_lines () =
  (* an over-cap line arriving fully terminated in one chunk must not
     bypass the cap *)
  let f = Server.Framing.create ~max_line_bytes:8 () in
  items [ "too_large"; "line:ok" ] (feed f ~now:0.0 "xxxxxxxxxx\nok\n")

let framing_overflow_across_feeds () =
  let f = Server.Framing.create ~max_line_bytes:8 () in
  items [] (feed f ~now:0.0 "xxxxx");
  items [ "too_large" ] (feed f ~now:0.0 "xxxxx");
  items [] (feed f ~now:0.0 "xxxxx");
  items [ "line:ok" ] (feed f ~now:0.0 "x\nok\n")

let deadline () = Alcotest.(check (option (float 1e-9))) "deadline"

let framing_deadline_armed_once () =
  (* the deadline is armed when the partial starts; trickling more
     bytes never extends it (the re-arm bug) *)
  let f = Server.Framing.create ~timeout:5.0 () in
  items [] (feed f ~now:100.0 "{\"par");
  deadline () (Some 105.0) (Server.Framing.deadline f);
  items [] (feed f ~now:104.0 "tial");
  deadline () (Some 105.0) (Server.Framing.deadline f);
  items [] (List.map show (Server.Framing.check_deadline f ~now:104.9));
  items [ "timed_out" ] (List.map show (Server.Framing.check_deadline f ~now:105.0));
  (* the timed-out line's tail is discarded through its newline *)
  items [] (feed f ~now:105.1 "tail}");
  items [ "line:next" ] (feed f ~now:105.2 "tail}\nnext\n")

let framing_deadline_rearms_per_line () =
  let f = Server.Framing.create ~timeout:5.0 () in
  items [ "line:a" ] (feed f ~now:10.0 "a\nst");
  deadline () (Some 15.0) (Server.Framing.deadline f);
  items [ "line:start" ] (feed f ~now:12.0 "art\n");
  deadline () None (Server.Framing.deadline f);
  items [] (feed f ~now:20.0 "again");
  deadline () (Some 25.0) (Server.Framing.deadline f)

let framing_finish () =
  let f = Server.Framing.create ~max_line_bytes:8 () in
  items [] (feed f ~now:0.0 "last");
  items [ "line:last" ] (List.map show (Server.Framing.finish f));
  items [] (List.map show (Server.Framing.finish f))

(* the same stream framed whole and under a random chunking: short,
   blank and over-cap lines, with or without a final newline *)
let prop_framing_any_chunking =
  let open QCheck2.Gen in
  let cap = 16 in
  let short =
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'e')
      (string_size ~gen:(oneofl [ 'a'; 'b'; ' ' ]) (int_range 0 (cap - 1)))
  in
  let blank = string_size ~gen:(oneofl [ ' '; '\t' ]) (int_range 0 3) in
  let over = string_size ~gen:(char_range 'f' 'z') (int_range (cap + 1) (3 * cap)) in
  let lines = list_size (int_range 0 12) (frequency [ (4, short); (2, blank); (2, over) ]) in
  let text (lines, final_newline) =
    String.concat "\n" lines ^ if final_newline then "\n" else ""
  in
  (* Too_large's payload is the size seen when the cap tripped, which
     depends on the split; only its position is compared *)
  let frame chunks =
    let f = Server.Framing.create ~max_line_bytes:cap () in
    let fed = List.concat_map (Server.Framing.feed f ~now:0.0) chunks in
    fed @ Server.Framing.finish f
    |> List.map (function Server.Framing.Too_large _ -> Server.Framing.Too_large 0 | item -> item)
  in
  let split s cuts =
    let n = String.length s in
    let rec chunks = function
      | a :: (b :: _ as rest) -> String.sub s a (b - a) :: chunks rest
      | _ -> []
    in
    chunks (List.sort_uniq compare (0 :: n :: List.map (fun k -> k * n / 1000) cuts))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"framing is independent of chunking"
       ~print:(fun (stream, cuts) ->
         Printf.sprintf "%S cut at %s/1000" (text stream)
           (String.concat "," (List.map string_of_int cuts)))
       (pair (pair lines bool) (list_size (int_range 0 6) (int_bound 1000)))
       (fun ((lines, _) as stream, cuts) ->
         let s = text stream in
         let whole = frame [ s ] in
         (* every Line a non-blank in-cap line of the stream, exactly
            one Too_large per over-cap line, in stream order *)
         let expected =
           List.filter_map
             (fun l ->
               if String.length l > cap then Some (Server.Framing.Too_large 0)
               else if String.trim l <> "" then Some (Server.Framing.Line l)
               else None)
             lines
         in
         whole = expected && frame (split s cuts) = whole))

(* --- engine --- *)

let with_engine f = Server.Engine.with_engine ~cache_size:64 ~jobs:1 f

let response_kind line =
  match Wire.Json.of_string line with
  | Ok json -> (
    match Wire.Json.member "kind" json with Some (Wire.Json.String k) -> k | _ -> "?")
  | Error _ -> "?"

let response_error line =
  match Wire.Json.of_string line with
  | Ok json -> (
    match Wire.Json.member "error" json with Some (Wire.Json.String e) -> e | _ -> "?")
  | Error _ -> "?"

let isolation () =
  with_engine (fun engine ->
      let good = Server.Engine.handle_line engine (request table1) in
      check_str "verdict" "verdict" (response_kind good);
      List.iter
        (fun bad ->
          let resp = Server.Engine.handle_line engine bad in
          check_str "error response" "error" (response_kind resp))
        [ "garbage"; "{}"; {|{"analyzer":"DP"}|}; String.make 100 '[' ];
      (* the engine still answers after the bad lines *)
      check_str "still serving" good (Server.Engine.handle_line engine (request table1)))

let batch_order_and_determinism () =
  let lines =
    Array.init 40 (fun i ->
        if i mod 7 = 3 then Printf.sprintf "bad request %d" i
        else
          let analyzer = List.nth [ "DP"; "GN1"; "GN2" ] (i mod 3) in
          request ~id:(Wire.Json.Int i) ~analyzer table1)
  in
  let run jobs =
    Server.Engine.with_engine ~cache_size:8 ~jobs (fun engine ->
        Server.Engine.handle_lines engine lines)
  in
  let serial = run 1 and parallel = run 4 in
  check_int "one response per request" (Array.length lines) (Array.length serial);
  Array.iteri
    (fun i line ->
      check_str (Printf.sprintf "response %d independent of -j" i) line parallel.(i);
      (* responses echo the request ids in order *)
      if i mod 7 <> 3 then
        check_bool
          (Printf.sprintf "response %d in request order" i)
          true
          (contains ~needle:(Printf.sprintf "\"id\":%d" i) line))
    serial

let cached_batch_identical () =
  (* the same batch twice: the second pass is all cache hits and must
     be byte-identical.  The batch path probes every request's key up
     front (20 misses on the empty cache), then dedups the misses to a
     single decide_all computation; the second pass hits on all 20. *)
  let lines = Array.init 20 (fun i -> request ~id:(Wire.Json.Int i) table1) in
  with_engine (fun engine ->
      let first = Server.Engine.handle_lines engine lines in
      let second = Server.Engine.handle_lines engine lines in
      Array.iteri (fun i line -> check_str (Printf.sprintf "line %d" i) line second.(i)) first;
      let s = Server.Engine.cache_stats engine in
      check_int "first batch probes all miss" 20 s.Cache.Lru.misses;
      check_int "second batch all hit" 20 s.Cache.Lru.hits)

(* a batch whose decision raises is answered again request by request:
   only the request that raises gets the "internal error" line *)
let raising_request_isolated () =
  let raises ~fpga_area ts =
    if List.exists (fun t -> t.Model.Task.area = 7) (Model.Taskset.to_list ts) then failwith "boom"
    else Core.Analyzer.dp.Core.Analyzer.decide ~fpga_area ts
  in
  Core.Analyzer.register (Core.Analyzer.make ~name:"RAISES-ON-7" ~cite:"test" ~version:"1" raises);
  let bad = taskset [ ("x", "1", "5", "5", 7) ] in
  let lines =
    Array.map
      (fun (id, ts) -> request ~id:(Wire.Json.Int id) ~analyzer:"RAISES-ON-7" ts)
      [| (1, table1); (2, bad); (3, table1) |]
  in
  with_engine (fun engine ->
      let responses = Server.Engine.handle_lines engine lines in
      check_str "first answered" "verdict" (response_kind responses.(0));
      check_str "raising request" "internal error: Failure(\"boom\")" (response_error responses.(1));
      check_bool "its id echoed" true (contains ~needle:{|"id":2|} responses.(1));
      check_str "last answered" "verdict" (response_kind responses.(2));
      check_str "same bytes as alone" (Server.Engine.handle_line engine lines.(2)) responses.(2))

(* --- the decoder and printer against their references --- *)

open Wire_gen

let prop_json_of_string_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"of_string == reference on random JSON"
       ~print:(fun (_, text) -> Printf.sprintf "%S" text) json_texts (fun (v, text) ->
         Json.of_string text = Json_reference.of_string text && Json.of_string text = Ok v))

let prop_json_of_string_mutated =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"of_string == reference on mutated request lines"
       ~print:(Printf.sprintf "%S") mutated_lines (fun line ->
         Json.of_string line = Json_reference.of_string line))

let prop_json_to_string_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"to_string == reference printer" ~print:Json_reference.to_string
       json_value (fun v -> String.equal (Json.to_string v) (Json_reference.to_string v)))

let prop_json_to_string_order =
  let rec reorder f = function
    | Json.List vs -> Json.List (List.map (reorder f) vs)
    | Json.Obj fields -> Json.Obj (f (List.map (fun (k, v) -> (k, reorder f v)) fields))
    | v -> v
  in
  let distinct fields = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) fields in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"to_string ignores key order"
       ~print:(fun (v, _) -> Json.to_string v)
       QCheck2.Gen.(pair json_value int)
       (fun (v, seed) ->
         let v = reorder distinct v in
         let st = Random.State.make [| seed |] in
         let shuffle l =
           List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
         in
         String.equal (Json.to_string v) (Json.to_string (reorder shuffle v))))

(* the id a well-formed request object carries, read by the reference
   decoder *)
let recoverable_id line =
  match Json_reference.of_string line with
  | Ok (Json.Obj _ as j) -> (
    match Json.member "id" j with Some (Json.Int _ | Json.String _) as id -> id | _ -> None)
  | Ok _ | Error _ -> None

let prop_handle_line_total =
  let lines =
    QCheck2.Gen.(frequency [ (4, mutated_lines); (1, string_size ~gen:char (int_range 0 40)) ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"handle_line answers every line, echoing its id"
       ~print:(Printf.sprintf "%S") lines (fun line ->
         with_engine (fun engine ->
             match Server.Engine.handle_line engine line with
             | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)
             | resp -> (
               if String.contains resp '\n' then QCheck2.Test.fail_report "more than one line";
               match Json.of_string resp with
               | Error e -> QCheck2.Test.fail_reportf "answer is not JSON: %s" e
               | Ok answer ->
                 List.mem (response_kind resp) [ "verdict"; "error" ]
                 && Json.member "id" answer = recoverable_id line))))

(* --- the column decoder and the rendered writer against the tree
   code they replaced (test/protocol_reference.ml) --- *)

module Columns = Model.Taskset.Columns

let show_decoded = function
  | Error (id, msg) ->
    Printf.sprintf "Error (%s, %S)" (match id with Some id -> Json.to_string id | None -> "-") msg
  | Ok (id, analyzer, area, (c : Columns.t)) ->
    Printf.sprintf "Ok (%s, %s, %d, [%s])"
      (match id with Some id -> Json.to_string id | None -> "-")
      analyzer area
      (String.concat "; "
         (List.init c.Columns.n (fun i ->
              Printf.sprintf "%S %d %d %d %d" c.Columns.names.(i) c.Columns.exec.(i)
                c.Columns.deadline.(i) c.Columns.period.(i) c.Columns.area.(i))))

(* what a decode is compared on: ticks, areas, names, id, analyzer *)
let analyzer_id (a : Core.Analyzer.t) = a.Core.Analyzer.name ^ "/" ^ a.Core.Analyzer.version

let decoded line =
  Result.map
    (fun (d : Server.Protocol.decoded) -> (d.id, analyzer_id d.analyzer, d.fpga_area, d.columns))
    (Server.Protocol.decode line)

let reference_decoded line =
  Result.map
    (fun (r : Server.Protocol.request) ->
      (r.id, analyzer_id r.analyzer, r.fpga_area, Columns.of_taskset r.taskset))
    (Protocol_reference.parse line)

let same_decode line =
  let got = decoded line and want = reference_decoded line in
  if got <> want then
    QCheck2.Test.fail_reportf "decode %s\nreference %s" (show_decoded got) (show_decoded want);
  (* the record-building wrapper agrees too *)
  match (Server.Protocol.parse line, Protocol_reference.parse line) with
  | Ok a, Ok b -> Model.Taskset.equal a.taskset b.taskset && a.id = b.id
  | Error a, Error b -> a = b
  | _ -> false

(* request objects as a careless client builds them: keys in any
   order, some missing, some twice, values of the wrong type, tasks
   that are not objects; [json_text] then spells every string with
   random escapes (a key "C" may arrive as "\u0043") and whitespace *)
let request_values =
  let open QCheck2.Gen in
  let str s = Json.String s in
  let time =
    frequency
      [
        (6, map str (oneofl [ "1.26"; "7"; "0.5"; "12.125"; "01.5"; ".5"; "+7"; "1.260" ]));
        (2, map (fun i -> Json.Int i) (oneofl [ 1; 3; 7; 0; -2; max_int ]));
        (1, oneofl [ str "1.2345"; str "x"; str "-1"; str "99999999999999999999"; Json.Null; Json.List [] ]);
      ]
  in
  let area = frequency [ (8, map (fun a -> Json.Int a) (int_range 1 12)); (1, oneofl [ Json.Int 0; str "3" ]) ] in
  let name = frequency [ (6, map str json_string); (1, return (Json.Int 4)) ] in
  (* each key drawn once, now and then dropped, now and then drawn a
     second time (most often with another value), then shuffled *)
  let members keys =
    let field (k, v) = map (fun v -> (k, v)) v in
    let* kept = flatten_l (List.map (fun kv -> pair (frequency [ (12, return true); (1, return false) ]) (field kv)) keys) in
    let kept = List.filter_map (fun (keep, f) -> if keep then Some f else None) kept in
    let* again = frequency [ (2, return []); (1, map (fun f -> [ f ]) (oneofl keys >>= field)) ] in
    shuffle_l (kept @ again)
  in
  let task =
    let* fields = members [ ("name", name); ("C", time); ("D", time); ("T", time); ("A", area) ] in
    frequency [ (12, return (Json.Obj fields)); (1, return (Json.Int 5)); (1, return (Json.Obj [ ("x", Json.Null) ])) ]
  in
  let tasks = map (fun l -> Json.List l) (frequency [ (12, list_size (int_range 0 4) task); (1, return []) ]) in
  let analyzer =
    frequency
      [
        (8, map str (oneofl [ "DP"; "gn1"; " GN2 "; "NEC"; "approx[0.25]" ]));
        (1, map str (oneofl [ "nope"; "approx[x]" ]));
        (1, return (Json.Int 1));
      ]
  in
  let area = frequency [ (8, map (fun a -> Json.Int a) (int_range 1 16)); (1, oneofl [ Json.Int 0; str "10" ]) ] in
  let id = oneof [ map (fun i -> Json.Int i) int; map str json_string; return Json.Null ] in
  let* fields =
    members [ ("analyzer", analyzer); ("fpga_area", area); ("id", id); ("tasks", tasks); ("other", json_value) ]
  in
  json_text (Json.Obj fields)

let prop_decode_random_json =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"decode == reference parse on random JSON"
       ~print:(fun (_, text) -> Printf.sprintf "%S" text) json_texts (fun (_, text) -> same_decode text))

let prop_decode_requests =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"decode == reference parse on request objects"
       ~print:(Printf.sprintf "%S") request_values same_decode)

let prop_decode_mutated =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000 ~name:"decode == reference parse on mutated request lines"
       ~print:(Printf.sprintf "%S")
       QCheck2.Gen.(frequency [ (1, request_lines); (3, mutated_lines); (1, request_values >>= mutate) ])
       same_decode)

(* verdicts of any shape: checks in any task order (gaps, repeats),
   multi-limb sides, notes and test names that need escaping *)
let verdicts =
  let open QCheck2.Gen in
  let small = int_range (-50) 50 and big = oneofl [ max_int; min_int + 1; 1 lsl 40 ] in
  let rat =
    let* num = frequency [ (4, small); (1, big) ] and* den = frequency [ (4, int_range 1 12); (1, big) ] in
    let* wide = frequency [ (4, return false); (1, return true) ] in
    let den = if den = 0 then 1 else den in
    let r = Rat.of_ints num den in
    return (if wide then Rat.mul r (Rat.of_ints max_int 7) else r)
  in
  let check =
    let* task_index = int_range 0 7 and* satisfied = bool and* lhs = rat and* rhs = rat in
    let* note = frequency [ (2, return ""); (1, json_string) ] in
    return { Core.Verdict.task_index; satisfied; lhs; rhs; note }
  in
  let* test_name = frequency [ (3, oneofl [ "DP"; "GN2"; "NEC" ]); (1, json_string) ] in
  let* checks = list_size (int_range 0 6) check in
  return (Core.Verdict.make ~test_name ~checks)

let requests =
  let open QCheck2.Gen in
  let* id = oneof [ return None; map (fun i -> Some (Json.Int i)) int; map (fun s -> Some (Json.String s)) json_string ] in
  let* analyzer = oneofl [ Core.Analyzer.dp; Core.Analyzer.gn1; Core.Analyzer.gn2; Core.Analyzer.nec ] in
  let* fpga_area = oneof [ int_range 1 100; return max_int ] in
  return { Server.Protocol.id; analyzer; fpga_area; taskset = table1 }

let prop_response_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"response == reference response on random verdicts"
       ~print:(fun (req, v) -> Protocol_reference.response req v)
       QCheck2.Gen.(pair requests verdicts)
       (fun (req, v) -> String.equal (Server.Protocol.response req v) (Protocol_reference.response req v)))

(* the verdict object assembled from its rendered checks, as the
   service does *)
let rendered_json (r : Core.Verdict.Rendered.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (if r.accepted then {|{"accepted":true,"analyzer":|} else {|{"accepted":false,"analyzer":|});
  Json.add_string buf r.test_name;
  Buffer.add_string buf {|,"checks":[|};
  Array.iteri
    (fun i check ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf check;
      Bignum.add_int buf (r.tasks.(i) + 1);
      Buffer.add_char buf '}')
    r.checks;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* the two check writers: Rendered.of_verdict's buffer and to_json's
   tree, on notes that need escapes and sides wider than an int *)
let prop_rendered_to_json =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"rendered checks == Verdict.to_json bytes"
       ~print:(fun v -> Json.to_string (Core.Verdict.to_json v))
       verdicts
       (fun v ->
         String.equal (rendered_json (Core.Verdict.Rendered.of_verdict v)) (Json.to_string (Core.Verdict.to_json v))))

(* the rendered remap against the verdict's, on checks in any order
   with repeated task indices (where only stability decides) *)
let prop_rendered_remap =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"rendered remap == verdict remap"
       QCheck2.Gen.(pair verdicts (shuffle_a (Array.init 8 Fun.id)))
       (fun (v, order) ->
         Core.Verdict.Rendered.remap order (Core.Verdict.Rendered.of_verdict v)
         = Core.Verdict.Rendered.of_verdict (Core.Verdict.remap order v)))

(* minor words per rendered check of DP, GN1 and GN2 on serve-miss's
   request stream (fresh tasksets of 4-8 tasks on A(H) = 100): about
   30-37, mostly the check's own bytes.  The count depends only on the
   build and the input.  A side printed through an allocating int
   conversion (9 words a call, four sides a check) puts every analyzer
   above 60 *)
let rendered_check_words () =
  let rng = Rng.create ~seed:1 in
  let sets =
    Array.init 2000 (fun _ ->
        let profile = Model.Generator.unconstrained ~n:(Rng.int_incl rng 4 8) in
        Model.Generator.draw rng { profile with Model.Generator.fpga_area = 100 })
  in
  List.iter
    (fun (a : Core.Analyzer.t) ->
      let verdicts = Array.map (a.decide ~fpga_area:100) sets in
      let checks = Array.fold_left (fun n v -> n + List.length v.Core.Verdict.checks) 0 verdicts in
      let before = Gc.minor_words () in
      Array.iter (fun v -> ignore (Sys.opaque_identity (Core.Verdict.Rendered.of_verdict v))) verdicts;
      let words = (Gc.minor_words () -. before) /. float_of_int checks in
      if words > 48. then Alcotest.failf "%s: %.1f minor words per rendered check" a.name words)
    Core.Analyzer.defaults

(* the cache's bytes against a fresh decide printed by the reference
   writer: the same taskset cold, then permuted and renamed (a hit),
   and with the cache off *)
let prop_cached_equals_fresh =
  let open QCheck2.Gen in
  let task =
    let* t = int_range 2 10 and* d = int_range 1 12 and* a = int_range 1 12 in
    let* c = int_range 1 (1000 * min t d) in
    return (Model.Task.make ~exec:(Model.Time.of_ticks c) ~deadline:(Model.Time.of_units d) ~period:(Model.Time.of_units t) ~area:a ())
  in
  let case =
    let* tasks = list_size (int_range 1 7) task in
    let* tasks = oneof [ return tasks; map (fun l -> l @ l) (return tasks) ] in
    let* analyzer = oneofl [ "DP"; "GN1"; "GN2"; "NEC"; "GN1-printed"; "DP-original" ] in
    let* fpga_area = int_range 6 16 in
    let* perm = shuffle_l (List.mapi (fun i t -> { t with Model.Task.name = Printf.sprintf "p\"%d\\" i }) tasks) in
    return (analyzer, fpga_area, Model.Taskset.of_list tasks, Model.Taskset.of_list perm)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"cached bytes == fresh, permuted and renamed"
       ~print:(fun (a, area, ts, _) -> Printf.sprintf "%s area %d\n%s" a area (Model.Taskset.to_csv ts))
       case
       (fun (analyzer, fpga_area, ts, perm) ->
         let line ts = request ~id:(Json.String "q\"\\") ~analyzer ~fpga_area ts in
         let fresh ts =
           match Protocol_reference.parse (line ts) with
           | Ok req ->
             Protocol_reference.response req (req.analyzer.Core.Analyzer.decide ~fpga_area req.taskset)
           | Error (_, msg) -> QCheck2.Test.fail_report msg
         in
         let lines = [| line ts; line perm; line ts; line perm |] in
         let want = [| fresh ts; fresh perm; fresh ts; fresh perm |] in
         let served cache_size =
           Server.Engine.with_engine ~cache_size ~jobs:1 (fun engine ->
               Array.map (fun l -> (Server.Engine.handle_lines engine [| l |]).(0)) lines)
         in
         served 64 = want && served 0 = want))

(* --- stdio over pipes (the framing regressions, end to end) --- *)

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* run the loop's stdio endpoint over pipes, feed it with [script]
   (which may sleep between writes), and return the response lines;
   the loop returns by itself once the input ends *)
let serve_script ?timeout script =
  with_engine (fun engine ->
      let service =
        {
          Server.Loop.handle_lines = Server.Engine.handle_lines engine;
          stop_requested = (fun () -> false);
          shed_response = Server.Protocol.shed_response;
          is_mutation = (fun _ -> false);
        }
      in
      let r_in, w_in = Unix.pipe ~cloexec:true () in
      let r_out, w_out = Unix.pipe ~cloexec:true () in
      let server =
        Domain.spawn (fun () ->
            Server.Loop.serve_service service ?timeout
              [ Server.Loop.stdio_listener ~input:r_in ~output:w_out ])
      in
      script (write_all w_in);
      Unix.close w_in;
      Domain.join server;
      Unix.close w_out;
      Unix.close r_in;
      let responses =
        String.split_on_char '\n' (read_all r_out) |> List.filter (fun l -> String.trim l <> "")
      in
      Unix.close r_out;
      responses)

let big = String.make (Server.Framing.default_max_line_bytes + 64) 'x'

let serve_answers_lines_before_oversized_partial () =
  (* regression: a chunk carrying complete requests and the head of an
     oversized partial must answer the requests, then the error *)
  let responses =
    serve_script (fun write -> write (request ~id:(Wire.Json.Int 1) table1 ^ "\n" ^ big))
  in
  check_int "two responses" 2 (List.length responses);
  check_str "request answered" "verdict" (response_kind (List.nth responses 0));
  check_str "then the cap error" Server.Loop.too_large_message
    (response_error (List.nth responses 1))

let serve_caps_terminated_lines () =
  (* regression: a terminated over-cap line must get the cap error,
     not be parsed (the old loop only capped unterminated partials) *)
  let responses =
    serve_script (fun write ->
        write (big ^ "\n");
        write (request ~id:(Wire.Json.Int 2) table1 ^ "\n"))
  in
  check_int "two responses" 2 (List.length responses);
  check_str "cap error" Server.Loop.too_large_message (response_error (List.nth responses 0));
  check_str "stream resumes" "verdict" (response_kind (List.nth responses 1))

let serve_timeout_resists_trickling () =
  (* regression: the partial-line deadline is measured from when the
     partial started; a client trickling bytes cannot keep re-arming
     it (the old loop reset the deadline on every read) *)
  let responses =
    serve_script ~timeout:0.2 (fun write ->
        write "{\"trick";
        Unix.sleepf 0.09;
        write "le";
        Unix.sleepf 0.09;
        write "d";
        (* past the deadline of the partial's start, though every
           inter-write gap was below the timeout *)
        Unix.sleepf 0.15)
  in
  check_int "exactly one response" 1 (List.length responses);
  check_str "the timeout error" Server.Loop.timeout_message
    (response_error (List.nth responses 0))

(* --- the multi-client event loop --- *)

let temp_socket name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

(* listeners are bound in the test domain before the loop domain
   spawns, so clients can connect without retrying *)
let with_loop ?limits ?idle_timeout ~jobs listeners f =
  let engine = Server.Engine.create ~cache_size:256 ~jobs () in
  let stop = Atomic.make false in
  let service =
    {
      Server.Loop.handle_lines = Server.Engine.handle_lines engine;
      stop_requested = (fun () -> Atomic.get stop);
      shed_response = Server.Protocol.shed_response;
      is_mutation = (fun _ -> false);
    }
  in
  let server =
    Domain.spawn (fun () -> Server.Loop.serve_service service ?idle_timeout ?limits listeners)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      Server.Engine.shutdown engine)
    (fun () -> f engine)

let roundtrip ~addr lines =
  match Server.Engine.client_roundtrip_addr ~addr lines with
  | Ok responses -> responses
  | Error msg -> Alcotest.failf "client_roundtrip_addr: %s" msg

let socket_roundtrip () =
  let path = temp_socket "redf-test-server.sock" in
  with_loop ~jobs:1 [ Server.Loop.unix_listener ~path ] (fun engine ->
      let lines =
        [| request ~id:(Wire.Json.Int 1) table1; "malformed"; request ~id:(Wire.Json.Int 2) table1 |]
      in
      let responses = roundtrip ~addr:(Unix.ADDR_UNIX path) lines in
      check_int "three responses" 3 (Array.length responses);
      check_str "first is a verdict" "verdict" (response_kind responses.(0));
      check_str "second is an error" "error" (response_kind responses.(1));
      check_str "third is a verdict" "verdict" (response_kind responses.(2));
      (* in-process evaluation and the socket path agree byte for byte *)
      check_str "socket equals in-process"
        (Server.Engine.handle_line engine lines.(0))
        responses.(0));
  check_bool "socket file removed" false (Sys.file_exists path)

let tcp_roundtrip () =
  let listener = Server.Loop.tcp_listener ~host:"127.0.0.1" ~port:0 in
  let port = Server.Loop.bound_port listener in
  check_bool "ephemeral port" true (port > 0);
  with_loop ~jobs:1 [ listener ] (fun engine ->
      let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
      let lines = [| request ~id:(Wire.Json.Int 1) table1; "malformed" |] in
      let responses = roundtrip ~addr lines in
      check_int "two responses" 2 (Array.length responses);
      check_str "tcp equals in-process"
        (Server.Engine.handle_line engine lines.(0))
        responses.(0);
      check_str "error isolated" "error" (response_kind responses.(1)))

let concurrent_clients_isolated () =
  (* N concurrent clients, each with its own request stream, over each
     transport: every client gets its own answers, in its own order,
     byte-identical to a serial in-process evaluation of its lines.
     The streams mix cache hits (table1), first-time misses (a pool of
     generated sets, shared across clients so later asks hit) and
     malformed lines, against the sharded cache of a 2-worker engine. *)
  let clients = 8 and per_client = 40 in
  let generated =
    Array.init 10 (fun d ->
        Model.Generator.draw (Rng.create ~seed:(1000 + d)) (Model.Generator.unconstrained ~n:5))
  in
  let lines_of c =
    Array.init per_client (fun i ->
        let analyzer = List.nth [ "DP"; "GN1"; "GN2" ] ((c + i) mod 3) in
        let id = Wire.Json.String (Printf.sprintf "c%d-r%d" c i) in
        if i mod 9 = 5 then Printf.sprintf "bad line c%d-%d" c i
        else if i mod 2 = 0 then request ~analyzer ~id table1
        else request ~analyzer ~fpga_area:100 ~id generated.((c + i) mod Array.length generated))
  in
  (* the serial reference: same lines, fresh single-worker engine *)
  let expected =
    Server.Engine.with_engine ~cache_size:256 ~shards:1 ~jobs:1 (fun reference ->
        Array.init clients (fun c -> Server.Engine.handle_lines reference (lines_of c)))
  in
  let unix () =
    let path = temp_socket "redf-test-loop.sock" in
    (Server.Loop.unix_listener ~path, Unix.ADDR_UNIX path)
  in
  let tcp () =
    let listener = Server.Loop.tcp_listener ~host:"127.0.0.1" ~port:0 in
    (listener, Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Loop.bound_port listener))
  in
  List.iter
    (fun (transport, listen) ->
      let listener, addr = listen () in
      let got =
        with_loop ~jobs:2 [ listener ] (fun _ ->
            let domains =
              Array.init clients (fun c -> Domain.spawn (fun () -> roundtrip ~addr (lines_of c)))
            in
            Array.map Domain.join domains)
      in
      Array.iteri
        (fun c responses ->
          check_int
            (Printf.sprintf "%s client %d: one response per request" transport c)
            per_client (Array.length responses);
          Array.iteri
            (fun i expected ->
              check_str (Printf.sprintf "%s client %d response %d" transport c i) expected
                responses.(i))
            expected.(c))
        got)
    [ ("unix", unix); ("tcp", tcp) ]

let load_shedding () =
  (* with a global in-flight budget of 1, a burst of pipelined requests
     (one write, so one server read) admits the first and sheds the
     rest — answered in order, as well-formed JSON, ids echoed *)
  let path = temp_socket "redf-test-shed.sock" in
  let limits = { Server.Loop.default_limits with Server.Loop.max_inflight = 1 } in
  let lines =
    Array.init 4 (fun i -> request ~id:(Wire.Json.String (Printf.sprintf "r%d" i)) table1)
  in
  with_loop ~limits ~jobs:1 [ Server.Loop.unix_listener ~path ] (fun engine ->
      let responses = roundtrip ~addr:(Unix.ADDR_UNIX path) lines in
      check_int "one response per request" 4 (Array.length responses);
      check_str "first admitted" (Server.Engine.handle_line engine lines.(0)) responses.(0);
      Array.iteri
        (fun i resp ->
          if i > 0 then begin
            check_str (Printf.sprintf "response %d shed" i) "server overloaded: request shed"
              (response_error resp);
            check_bool
              (Printf.sprintf "response %d echoes its id" i)
              true
              (contains ~needle:(Printf.sprintf "\"id\":\"r%d\"" i) resp)
          end)
        responses)

let abrupt_disconnect_isolated () =
  (* regression: a client that pipelines requests and closes its socket
     before draining the responses used to kill the whole loop with an
     uncaught EPIPE/ECONNRESET; it must cost only that connection *)
  let path = temp_socket "redf-test-epipe.sock" in
  with_loop ~jobs:1 [ Server.Loop.unix_listener ~path ] (fun engine ->
      for round = 1 to 3 do
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_UNIX path);
        let payload =
          String.concat ""
            (List.init 16 (fun i ->
                 request ~id:(Wire.Json.Int ((100 * round) + i)) table1 ^ "\n"))
        in
        write_all sock payload;
        (* RST rather than orderly shutdown where the stack allows it:
           close with response bytes surely still undelivered *)
        Unix.close sock;
        (* a well-behaved client right after must be served as if
           nothing happened *)
        let responses =
          roundtrip ~addr:(Unix.ADDR_UNIX path) [| request ~id:(Wire.Json.Int round) table1 |]
        in
        check_int (Printf.sprintf "round %d: served" round) 1 (Array.length responses);
        check_str
          (Printf.sprintf "round %d: byte-identical" round)
          (Server.Engine.handle_line engine (request ~id:(Wire.Json.Int round) table1))
          responses.(0)
      done)

let idle_timeout_closes_idle_connection () =
  let path = temp_socket "redf-test-idle.sock" in
  with_loop ~idle_timeout:0.3 ~jobs:1 [ Server.Loop.unix_listener ~path ] (fun _ ->
      let lines = [| request ~id:(Wire.Json.Int 1) table1 |] in
      match Server.Engine.client_hold ~addr:(Unix.ADDR_UNIX path) ~hold:10.0 lines with
      | Error msg -> Alcotest.failf "client_hold: %s" msg
      | Ok (responses, ending) ->
        (* answered first, evicted after — the timeout applies to idle
           connections, not slow requests *)
        check_int "request answered before eviction" 1 (Array.length responses);
        check_str "a verdict" "verdict" (response_kind responses.(0));
        check_bool "server closed the idle connection" true (ending = `Closed_by_server))

(* a hand-rolled TCP server whose first connection answers only [cut]
   of the pipelined lines before dropping the socket — the shape of a
   daemon crashing between reply and flush *)
let flaky_server ~total ~cut =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let seen = Array.make 2 [] in
  let read_lines conn n =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      if List.length lines >= n then lines
      else
        match Unix.read conn chunk 0 (Bytes.length chunk) with
        | 0 -> lines
        | got ->
          Buffer.add_subbytes buf chunk 0 got;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let server =
    Domain.spawn (fun () ->
        (* first connection: all [total] lines arrive, [cut] answered *)
        let conn, _ = Unix.accept sock in
        let lines = read_lines conn total in
        seen.(0) <- lines;
        List.iteri (fun i l -> if i < cut then write_all conn ("ack:" ^ l ^ "\n")) lines;
        Unix.close conn;
        (* second connection: the retry; answer everything *)
        let conn, _ = Unix.accept sock in
        let lines = read_lines conn (total - cut) in
        seen.(1) <- lines;
        List.iter (fun l -> write_all conn ("ack:" ^ l ^ "\n")) lines;
        Unix.close conn;
        Unix.close sock)
  in
  (port, server, seen)

let retry_client_resumes_suffix () =
  let total = 5 and cut = 2 in
  let port, server, seen = flaky_server ~total ~cut in
  let lines = Array.init total (fun i -> Printf.sprintf "req-%d" i) in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let result = Server.Engine.client_roundtrip_retry ~addr ~retries:3 ~backoff_ms:10 lines in
  Domain.join server;
  (match result with
  | Error msg -> Alcotest.failf "retry client: %s" msg
  | Ok responses ->
    check_int "one response per request" total (Array.length responses);
    Array.iteri
      (fun i resp -> check_str (Printf.sprintf "response %d" i) ("ack:req-" ^ string_of_int i) resp)
      responses);
  (* the wire contract: the first connection saw everything, the retry
     re-sent exactly the unanswered suffix — answered requests are
     never repeated *)
  check_int "first connection saw all" total (List.length seen.(0));
  Alcotest.(check (list string))
    "retry sent the suffix only"
    (Array.to_list (Array.sub lines cut (total - cut)))
    seen.(1)

let mutation_shed_deferred () =
  (* under overload, read-only lines shed at [max_inflight] while
     mutations ride until twice that — the admission daemon's
     mutations-first degradation *)
  let path = temp_socket "redf-test-mutshed.sock" in
  let stop = Atomic.make false in
  let service =
    {
      Server.Loop.handle_lines = Array.map (fun l -> "done:" ^ l);
      stop_requested = (fun () -> Atomic.get stop);
      shed_response = (fun l -> "shed:" ^ l);
      is_mutation = (fun l -> contains ~needle:"mut" l);
    }
  in
  let limits = { Server.Loop.default_limits with Server.Loop.max_inflight = 1 } in
  let listener = Server.Loop.unix_listener ~path in
  let server = Domain.spawn (fun () -> Server.Loop.serve_service service ~limits [ listener ]) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      (* one write, so one server read: enqueued as one step batch *)
      write_all sock "query-1\nmut-1\nquery-2\n";
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let responses =
        String.split_on_char '\n' (read_all sock) |> List.filter (fun l -> String.trim l <> "")
      in
      Unix.close sock;
      Alcotest.(check (list string))
        "mutation admitted beyond the query threshold"
        [ "done:query-1"; "done:mut-1"; "shed:query-2" ]
        responses)

let dead_connection_returns_inflight_budget () =
  (* a client that pipelines two lines and vanishes dies with one line
     still queued (max_pending 1 evaluates one per tick); that line must
     give its in-flight slot back, or every later client would be shed
     against a budget the dead one still holds *)
  let path = temp_socket "redf-test-budget.sock" in
  let stop = Atomic.make false in
  let service =
    {
      Server.Loop.handle_lines = Array.map (fun l -> "done:" ^ l);
      stop_requested = (fun () -> Atomic.get stop);
      shed_response = (fun l -> "shed:" ^ l);
      is_mutation = (fun _ -> false);
    }
  in
  let limits = { Server.Loop.default_limits with Server.Loop.max_pending = 1; max_inflight = 2 } in
  let listener = Server.Loop.unix_listener ~path in
  (* connected, written and closed before the loop runs: the loop's
     first write to it fails *)
  let gone = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect gone (Unix.ADDR_UNIX path);
  write_all gone "a\nb\n";
  Unix.close gone;
  let server = Domain.spawn (fun () -> Server.Loop.serve_service service ~limits [ listener ]) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server)
    (fun () ->
      Alcotest.(check (list string))
        "a later client gets the whole budget" [ "done:x"; "done:y" ]
        (Array.to_list (roundtrip ~addr:(Unix.ADDR_UNIX path) [| "x"; "y" |])))

let is_mutation_only_at_threshold () =
  (* below max_inflight a line is admitted whatever it is, so the
     service is not asked whether it is a mutation (the admission
     daemon would decode the line for it); at the bound every line is *)
  let run max_inflight =
    let calls = ref 0 in
    let service =
      {
        Server.Loop.handle_lines = Array.map (fun l -> "done:" ^ l);
        stop_requested = (fun () -> false);
        shed_response = (fun l -> "shed:" ^ l);
        is_mutation =
          (fun _ ->
            incr calls;
            false);
      }
    in
    let limits = { Server.Loop.default_limits with Server.Loop.max_inflight } in
    let r_in, w_in = Unix.pipe ~cloexec:true () in
    let r_out, w_out = Unix.pipe ~cloexec:true () in
    (* one write, so one read: the three lines are enqueued together *)
    write_all w_in "a\nb\nc\n";
    Unix.close w_in;
    Server.Loop.serve_service service ~limits
      [ Server.Loop.stdio_listener ~input:r_in ~output:w_out ];
    Unix.close w_out;
    let answered = read_all r_out in
    List.iter Unix.close [ r_in; r_out ];
    (!calls, answered)
  in
  let calls, answered = run 4 in
  check_int "no is_mutation call below the bound" 0 calls;
  check_str "all admitted" "done:a\ndone:b\ndone:c\n" answered;
  let calls, answered = run 1 in
  check_int "one is_mutation call per line at the bound" 2 calls;
  check_str "the rest shed" "done:a\nshed:b\nshed:c\n" answered

exception Service_down

let service_exception_ends_loop () =
  (* a service that raised is never called again: the queued lines
     behind the failing batch are not drained through it, and the
     original exception escapes (not Fun.Finally_raised) *)
  let calls = ref 0 in
  let service =
    {
      Server.Loop.handle_lines =
        (fun _ ->
          incr calls;
          raise Service_down);
      stop_requested = (fun () -> false);
      shed_response = (fun l -> "shed:" ^ l);
      is_mutation = (fun _ -> false);
    }
  in
  (* one write, so one read: three queued lines, one per tick *)
  let limits = { Server.Loop.default_limits with Server.Loop.max_pending = 1 } in
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  write_all w_in "a\nb\nc\n";
  Unix.close w_in;
  let outcome =
    match
      Server.Loop.serve_service service ~limits
        [ Server.Loop.stdio_listener ~input:r_in ~output:w_out ]
    with
    | () -> "returned"
    | exception Service_down -> "Service_down"
    | exception e -> Printexc.to_string e
  in
  Unix.close w_out;
  let answered = read_all r_out in
  List.iter Unix.close [ r_in; r_out ];
  check_str "the original exception escapes" "Service_down" outcome;
  check_int "exactly one handle_lines call" 1 !calls;
  check_str "nothing answered" "" answered

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick parse_errors;
          Alcotest.test_case "shed response" `Quick shed_response;
        ] );
      ( "json",
        [
          prop_json_of_string_reference;
          prop_json_of_string_mutated;
          prop_json_to_string_reference;
          prop_json_to_string_order;
          prop_handle_line_total;
        ] );
      ( "codec",
        [
          prop_decode_random_json;
          prop_decode_requests;
          prop_decode_mutated;
          prop_response_reference;
          prop_rendered_to_json;
          prop_rendered_remap;
          Alcotest.test_case "words per rendered check" `Quick rendered_check_words;
          prop_cached_equals_fresh;
        ] );
      ( "framing",
        [
          Alcotest.test_case "order before overflow" `Quick framing_order_before_overflow;
          Alcotest.test_case "cap on complete lines" `Quick framing_cap_on_complete_lines;
          Alcotest.test_case "overflow across feeds" `Quick framing_overflow_across_feeds;
          Alcotest.test_case "deadline armed once" `Quick framing_deadline_armed_once;
          Alcotest.test_case "deadline re-arms per line" `Quick framing_deadline_rearms_per_line;
          Alcotest.test_case "finish" `Quick framing_finish;
          prop_framing_any_chunking;
        ] );
      ( "engine",
        [
          Alcotest.test_case "isolation" `Quick isolation;
          Alcotest.test_case "batch order and determinism" `Quick batch_order_and_determinism;
          Alcotest.test_case "cached batch identical" `Quick cached_batch_identical;
          Alcotest.test_case "raising request isolated" `Quick raising_request_isolated;
        ] );
      ( "serve",
        [
          Alcotest.test_case "answers lines before oversized partial" `Quick
            serve_answers_lines_before_oversized_partial;
          Alcotest.test_case "caps terminated lines" `Quick serve_caps_terminated_lines;
          Alcotest.test_case "timeout resists trickling" `Quick serve_timeout_resists_trickling;
        ] );
      ( "loop",
        [
          Alcotest.test_case "socket roundtrip" `Quick socket_roundtrip;
          Alcotest.test_case "tcp roundtrip" `Quick tcp_roundtrip;
          Alcotest.test_case "concurrent clients isolated" `Quick concurrent_clients_isolated;
          Alcotest.test_case "load shedding" `Quick load_shedding;
          Alcotest.test_case "abrupt disconnect isolated" `Quick abrupt_disconnect_isolated;
          Alcotest.test_case "idle timeout closes idle connection" `Quick
            idle_timeout_closes_idle_connection;
          Alcotest.test_case "retry client resumes suffix" `Quick retry_client_resumes_suffix;
          Alcotest.test_case "mutation shed deferred" `Quick mutation_shed_deferred;
          Alcotest.test_case "is_mutation only at the bound" `Quick is_mutation_only_at_threshold;
          Alcotest.test_case "dead connection returns in-flight budget" `Quick
            dead_connection_returns_inflight_budget;
          Alcotest.test_case "service exception ends the loop" `Quick service_exception_ends_loop;
        ] );
    ]
