(* Tests for the analysis service: wire-format parsing, request
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

(* --- the decoder and printer against their references --- *)

module Json = Wire.Json

let json_string =
  let special = [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\001'; '\031'; '\127'; '\200'; ' '; 'u' ] in
  QCheck2.Gen.(string_size ~gen:(oneof [ char_range 'a' 'e'; oneofl special ]) (int_range 0 6))

let json_value =
  let open QCheck2.Gen in
  let int_ = oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int; 0; -1 ]; int ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int_;
               map (fun s -> Json.String s) json_string;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair json_string (self (n / 3))))
               );
             ])

(* any JSON text for [v]: whitespace between tokens, and each string
   byte raw where JSON allows it or escaped (\n, \/, \u00XX in either
   case) *)
let rec json_text v =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "\t"; "\n "; "\r\n" ] in
  let padded g = map3 (fun a x b -> a ^ x ^ b) ws g ws in
  let seq opening closing items =
    map (fun parts -> opening ^ String.concat "," parts ^ closing) (flatten_l items)
  in
  match v with
  | Json.Null -> return "null"
  | Json.Bool b -> return (string_of_bool b)
  | Json.Int i -> return (string_of_int i)
  | Json.String s -> string_text s
  | Json.List vs -> seq "[" "]" (List.map (fun v -> padded (json_text v)) vs)
  | Json.Obj fields ->
    let member (k, v) = map2 (fun k v -> k ^ ":" ^ v) (padded (string_text k)) (padded (json_text v)) in
    seq "{" "}" (List.map member fields)

and string_text s =
  let open QCheck2.Gen in
  let byte c =
    let u =
      map (fun upper -> Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") (Char.code c)) bool
    in
    match c with
    | '"' -> oneof [ return "\\\""; u ]
    | '\\' -> oneof [ return "\\\\"; u ]
    | '/' -> oneofl [ "/"; "\\/" ]
    | '\n' -> oneof [ return "\\n"; return "\n"; u ]
    | '\t' -> oneof [ return "\\t"; u ]
    | c when Char.code c >= 0x80 -> return (String.make 1 c)
    | c -> oneof [ return (String.make 1 c); u ]
  in
  let bytes = List.map byte (List.of_seq (String.to_seq s)) in
  map (fun parts -> "\"" ^ String.concat "" parts ^ "\"") (flatten_l bytes)

let json_texts = QCheck2.Gen.(json_value >>= fun v -> map (fun text -> (v, text)) (json_text v))

let prop_json_of_string_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"of_string == reference on random JSON"
       ~print:(fun (_, text) -> Printf.sprintf "%S" text) json_texts (fun (v, text) ->
         Json.of_string text = Json_reference.of_string text && Json.of_string text = Ok v))

(* request lines as clients spell them, then byte-mutated: a byte
   replaced, inserted or deleted, a span duplicated, the line cut, or a
   run of digits spliced in (into a time, that is a value past the int
   range) *)
let request_lines =
  let open QCheck2.Gen in
  let time = oneofl [ "1.26"; "0.95"; "7"; "5"; "01.5"; ".5"; "+7"; "1.260" ] in
  let task =
    map2
      (fun (c, d, t) (a, quote) ->
        let q s =
          if quote || String.contains s '.' || String.contains s '+' then "\"" ^ s ^ "\"" else s
        in
        Printf.sprintf {|{"name":"t","C":%s,"D":%s,"T":%s,"A":%d}|} (q c) (q d) (q t) a)
      (triple time time time) (pair (int_range 1 12) bool)
  in
  let id =
    oneofl
      [
        {|"id":3,|}; {|"id":"r\"1",|}; {|"id":-4,|}; ""; {|"id":[1],|}; {|"id":null,|};
        {|"id":4611686018427387903,|}; {|"id":4611686018427387904,|};
        {|"id":-4611686018427387904,|}; {|"id":-4611686018427387905,|}; {|"id":-0,|}; {|"id":007,|};
      ]
  in
  map3
    (fun id analyzer tasks ->
      Printf.sprintf {|{%s"analyzer":"%s","fpga_area":10,"tasks":[%s]}|} id analyzer
        (String.concat "," tasks))
    id (oneofl [ "DP"; "gn1"; "GN2"; "nec"; "nope" ]) (list_size (int_range 1 3) task)

let mutate =
  let open QCheck2.Gen in
  let syntax = [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '.'; '-'; '+'; '0'; '9'; 'e'; ' ' ] in
  let byte = oneof [ char; oneofl syntax ] in
  let once line =
    let n = String.length line in
    map3
      (fun kind at (c, digits) ->
        let at = at mod (n + 1) in
        let tail = String.sub line at (n - at) in
        match kind with
        | 0 when at < n -> String.sub line 0 at ^ String.make 1 c ^ String.sub line (at + 1) (n - at - 1)
        | 1 -> String.sub line 0 at ^ String.make 1 c ^ tail
        | 2 when at < n -> String.sub line 0 at ^ String.sub line (at + 1) (n - at - 1)
        | 3 -> String.sub line 0 at ^ String.sub tail 0 (min 6 (n - at)) ^ tail
        | 4 -> String.sub line 0 at
        | _ -> String.sub line 0 at ^ String.make digits '9' ^ tail)
      (int_range 0 5) nat (pair byte (int_range 1 25))
  in
  let rec times k line = if k = 0 then return line else once line >>= times (k - 1) in
  fun line -> int_range 1 3 >>= fun k -> times k line

let mutated_lines = QCheck2.Gen.(request_lines >>= mutate)

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
      let r_in, w_in = Unix.pipe ~cloexec:true () in
      let r_out, w_out = Unix.pipe ~cloexec:true () in
      let server =
        Domain.spawn (fun () ->
            Server.Loop.serve engine ?timeout
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
  let server =
    Domain.spawn (fun () -> Server.Loop.serve engine ?idle_timeout ?limits listeners)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Engine.request_stop engine;
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
          Alcotest.test_case "dead connection returns in-flight budget" `Quick
            dead_connection_returns_inflight_budget;
          Alcotest.test_case "service exception ends the loop" `Quick service_exception_ends_loop;
        ] );
    ]
