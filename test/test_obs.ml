(* Tests for the Obs metrics registry, span profiling and snapshots.
   The registry and the enabled flag are process-wide, so every test
   that records metrics runs inside [with_enabled], which resets the
   registry and restores the disabled default afterwards. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_enabled f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let entry name =
  match List.assoc_opt name (Obs.Snapshot.take ()) with
  | Some e -> e
  | None -> Alcotest.failf "metric %s not in snapshot" name

(* --- registry --- *)

let registration () =
  let c1 = Obs.Counter.make "t.reg.counter" in
  let c2 = Obs.Counter.make "t.reg.counter" in
  with_enabled (fun () ->
      Obs.Counter.incr c1;
      Obs.Counter.incr c2;
      (* both handles refer to the same underlying counter *)
      check_int "shared counter" 2 (Obs.Counter.value c1));
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs: \"t.reg.counter\" is already registered as a counter") (fun () ->
      ignore (Obs.Gauge.make "t.reg.counter"))

let disabled_is_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "t.noop.counter" in
  let g = Obs.Gauge.make "t.noop.gauge" in
  let tm = Obs.Timer.make "t.noop.timer" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Gauge.set g 5;
  Obs.Gauge.set_max g 7;
  Obs.Timer.record_ns tm 100;
  check_int "counter untouched" 0 (Obs.Counter.value c);
  check_int "gauge untouched" 0 (Obs.Gauge.value g);
  check_int "timer untouched" 0 (Obs.Timer.count tm);
  check_int "timer runs body" 41 (Obs.Timer.time tm (fun () -> 41));
  check_int "span runs body" 42 (Obs.Span.with_ ~name:"t.noop.span" (fun () -> 42))

(* 10,000 calls of each primitive while disabled add no minor words
   beyond an empty loop.  The closures are built before counting, and
   the calls run inside a span entered while enabled, so a disabled
   Span.with_ that built its "outer/inner" path would allocate *)
let disabled_allocates_nothing () =
  let c = Obs.Counter.make "t.alloc.counter" in
  let g = Obs.Gauge.make "t.alloc.gauge" in
  let tm = Obs.Timer.make "t.alloc.timer" in
  let body () = () in
  let calls =
    [
      ("Counter.incr", fun _ -> Obs.Counter.incr c);
      ("Counter.add", fun i -> Obs.Counter.add c i);
      ("Gauge.set", fun i -> Obs.Gauge.set g i);
      ("Gauge.set_max", fun i -> Obs.Gauge.set_max g i);
      ("Timer.record_ns", fun i -> Obs.Timer.record_ns tm i);
      ("Timer.time", fun _ -> Obs.Timer.time tm body);
      ("Span.with_", fun _ -> Obs.Span.with_ ~name:"t.alloc.inner" body);
    ]
  in
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f i
    done;
    Gc.minor_words () -. before
  in
  let extra =
    with_enabled (fun () ->
        Obs.Span.with_ ~name:"t.alloc.outer" (fun () ->
            Obs.set_enabled false;
            let empty = words (fun _ -> ()) in
            List.map (fun (name, f) -> (name, words f -. empty)) calls))
  in
  List.iter (fun (name, words) -> Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. words) extra

let counter_updates () =
  with_enabled (fun () ->
      let c = Obs.Counter.make "t.counter" in
      Obs.Counter.incr c;
      Obs.Counter.add c 4;
      Obs.Counter.add c 0;
      check_int "value" 5 (Obs.Counter.value c);
      Alcotest.check_raises "negative add"
        (Invalid_argument "Obs.Counter.add: negative increment") (fun () -> Obs.Counter.add c (-1)))

let gauge_updates () =
  with_enabled (fun () ->
      let g = Obs.Gauge.make "t.gauge" in
      Obs.Gauge.set g 3;
      Obs.Gauge.set_max g 8;
      Obs.Gauge.set_max g 5;
      check_int "set_max keeps high-water mark" 8 (Obs.Gauge.value g);
      Obs.Gauge.set g 2;
      check_int "set overwrites" 2 (Obs.Gauge.value g))

let timer_updates () =
  with_enabled (fun () ->
      let tm = Obs.Timer.make "t.timer" in
      Obs.Timer.record_ns tm 100;
      Obs.Timer.record_ns tm 50;
      Obs.Timer.record_ns tm (-7);
      check_int "count" 3 (Obs.Timer.count tm);
      check_int "sum clamps negatives" 150 (Obs.Timer.sum_ns tm);
      check_int "time returns the result" 9 (Obs.Timer.time tm (fun () -> 9));
      check_int "time recorded" 4 (Obs.Timer.count tm);
      match entry "t.timer" with
      | Obs.Snapshot.Timer { count; sum_ns; min_ns; max_ns } ->
        check_int "snapshot count" 4 count;
        check_bool "sum >= 150" true (sum_ns >= 150);
        check_int "min is the clamped record" 0 min_ns;
        check_bool "max >= 100" true (max_ns >= 100)
      | _ -> Alcotest.fail "expected a timer entry")

let reset_zeroes () =
  with_enabled (fun () ->
      let c = Obs.Counter.make "t.reset.counter" in
      let tm = Obs.Timer.make "t.reset.timer" in
      Obs.Counter.add c 7;
      Obs.Timer.record_ns tm 10;
      Obs.reset ();
      check_int "counter zeroed" 0 (Obs.Counter.value c);
      check_int "timer zeroed" 0 (Obs.Timer.count tm);
      (* handles stay live after reset *)
      Obs.Counter.incr c;
      check_int "counter usable" 1 (Obs.Counter.value c))

(* --- spans --- *)

let span_nesting () =
  with_enabled (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"inner" (fun () -> ());
          Obs.Span.with_ ~name:"inner" (fun () -> ()));
      Obs.Span.with_ ~name:"outer" (fun () -> ());
      let count name =
        match entry name with
        | Obs.Snapshot.Timer { count; _ } -> count
        | _ -> Alcotest.fail "expected a timer entry"
      in
      check_int "outer recorded" 2 (count "outer");
      check_int "inner nested under outer" 2 (count "outer/inner"))

let span_unwinds_on_exception () =
  with_enabled (fun () ->
      (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
      (* the stack was popped: a sibling span is not nested under boom *)
      Obs.Span.with_ ~name:"after" (fun () -> ());
      check_bool "boom recorded" true (List.mem_assoc "boom" (Obs.Snapshot.take ()));
      check_bool "after top-level" true (List.mem_assoc "after" (Obs.Snapshot.take ())))

(* --- snapshots --- *)

let snapshot_sorted_and_round_trips () =
  with_enabled (fun () ->
      Obs.Counter.add (Obs.Counter.make "t.snap.b") 2;
      Obs.Gauge.set (Obs.Gauge.make ~det:true "t.snap.a") 5;
      Obs.Timer.record_ns (Obs.Timer.make "t.snap.c") 100;
      let snap = Obs.Snapshot.take () in
      let names = List.map fst snap in
      Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
      let jsonl = Obs.Snapshot.to_jsonl snap in
      match Obs.Snapshot.of_jsonl jsonl with
      | Error msg -> Alcotest.failf "round trip failed: %s" msg
      | Ok parsed ->
        check_bool "round trip preserves everything" true (Obs.Snapshot.diff snap parsed = []))

let of_jsonl_rejects_garbage () =
  let check_err s =
    match Obs.Snapshot.of_jsonl s with
    | Error msg -> check_bool "names line 1" true (String.length msg > 0)
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  check_err "not json";
  check_err {|{"kind":"counter","name":"x"}|};
  check_err {|{"det":true,"kind":"rocket","name":"x","value":1}|}

(* blank lines count: the number is the bad line's position in the file *)
let of_jsonl_numbers_file_lines () =
  let good = {|{"det":true,"kind":"counter","name":"x","value":1}|} in
  match Obs.Snapshot.of_jsonl (String.concat "\n" [ good; ""; "  "; "oops"; good ]) with
  | Error msg -> Alcotest.(check string) "names line 4" "line 4: at offset 0: expected a value" msg
  | Ok _ -> Alcotest.fail "accepted a bad line"

(* --- the JSON-lines codec --- *)

(* Obs.Snapshot's line printer from before snapshots moved onto
   Wire.Json, kept verbatim as the byte reference for to_jsonl *)
module Printf_printer = struct
  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let line name = function
    | Obs.Snapshot.Counter { det; value } ->
      Printf.sprintf {|{"det":%b,"kind":"counter","name":"%s","value":%d}|} det (escape name) value
    | Obs.Snapshot.Gauge { det; value } ->
      Printf.sprintf {|{"det":%b,"kind":"gauge","name":"%s","value":%d}|} det (escape name) value
    | Obs.Snapshot.Timer { count; sum_ns; min_ns; max_ns } ->
      Printf.sprintf
        {|{"count":%d,"det":false,"kind":"timer","max_ns":%d,"min_ns":%d,"name":"%s","sum_ns":%d}|}
        count max_ns min_ns (escape name) sum_ns

  let to_jsonl t = String.concat "" (List.map (fun (n, e) -> line n e ^ "\n") t)
end

(* snapshots as [take] returns them (sorted, one entry per name) whose
   names mix the bytes JSON escapes (quote, backslash, control bytes)
   with bytes >= 0x80, which pass through raw *)
let snapshot_gen =
  let open QCheck2.Gen in
  let byte =
    oneof
      [
        oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255' ];
        char_range 'a' 'z';
        char;
      ]
  in
  let value = oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ] in
  let entry =
    oneof
      [
        map2 (fun det value -> Obs.Snapshot.Counter { det; value }) bool value;
        map2 (fun det value -> Obs.Snapshot.Gauge { det; value }) bool value;
        map
          (fun (count, sum_ns, min_ns, max_ns) -> Obs.Snapshot.Timer { count; sum_ns; min_ns; max_ns })
          (tup4 value value value value);
      ]
  in
  map
    (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
    (list_size (int_range 0 8) (pair (string_size ~gen:byte (int_range 0 12)) entry))

let codec_test name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name
       ~print:(fun s -> String.escaped (Printf_printer.to_jsonl s))
       snapshot_gen prop)

let prop_round_trip =
  codec_test "of_jsonl (to_jsonl s) = Ok s, escaped names" (fun s ->
      Obs.Snapshot.of_jsonl (Obs.Snapshot.to_jsonl s) = Ok s)

let prop_same_bytes =
  codec_test "to_jsonl == the Printf printer" (fun s ->
      String.equal (Obs.Snapshot.to_jsonl s) (Printf_printer.to_jsonl s))

let diff_reports_changes () =
  let counter ?(det = true) value = Obs.Snapshot.Counter { det; value } in
  let a = [ ("both", counter 1); ("only-a", counter 2) ] in
  let b = [ ("both", counter 3); ("only-b", counter 4) ] in
  let lines = Obs.Snapshot.diff a b in
  check_int "three differences" 3 (List.length lines);
  check_bool "removal listed" true (List.exists (fun l -> l.[0] = '-') lines);
  check_bool "addition listed" true (List.exists (fun l -> l.[0] = '+') lines);
  check_bool "change listed" true (List.exists (fun l -> l.[0] = '~') lines);
  check_int "identical" 0 (List.length (Obs.Snapshot.diff a a))

let diff_det_only () =
  let a =
    [
      ("c.det", Obs.Snapshot.Counter { det = true; value = 1 });
      ("c.free", Obs.Snapshot.Counter { det = false; value = 10 });
      ("t", Obs.Snapshot.Timer { count = 1; sum_ns = 5; min_ns = 5; max_ns = 5 });
    ]
  in
  let b =
    [
      ("c.det", Obs.Snapshot.Counter { det = true; value = 1 });
      ("c.free", Obs.Snapshot.Counter { det = false; value = 99 });
      ("t", Obs.Snapshot.Timer { count = 2; sum_ns = 9; min_ns = 4; max_ns = 5 });
    ]
  in
  check_bool "full diff differs" true (Obs.Snapshot.diff a b <> []);
  check_int "det-only ignores timers and free counters" 0
    (List.length (Obs.Snapshot.diff ~det_only:true a b))

(* --- domain safety --- *)

let multi_domain_exact () =
  with_enabled (fun () ->
      let c = Obs.Counter.make "t.domains.counter" in
      let tm = Obs.Timer.make "t.domains.timer" in
      let per_domain = 10_000 in
      let body () =
        for _ = 1 to per_domain do
          Obs.Counter.incr c;
          Obs.Timer.record_ns tm 1
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn body) in
      List.iter Domain.join domains;
      check_int "no lost counter updates" (4 * per_domain) (Obs.Counter.value c);
      check_int "no lost timer updates" (4 * per_domain) (Obs.Timer.count tm))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "registration and kinds" `Quick registration;
          Alcotest.test_case "disabled is a no-op" `Quick disabled_is_noop;
          Alcotest.test_case "disabled allocates nothing" `Quick disabled_allocates_nothing;
          Alcotest.test_case "counter updates" `Quick counter_updates;
          Alcotest.test_case "gauge updates" `Quick gauge_updates;
          Alcotest.test_case "timer updates" `Quick timer_updates;
          Alcotest.test_case "reset zeroes" `Quick reset_zeroes;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting paths" `Quick span_nesting;
          Alcotest.test_case "unwinds on exception" `Quick span_unwinds_on_exception;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "sorted and round trips" `Quick snapshot_sorted_and_round_trips;
          Alcotest.test_case "of_jsonl rejects garbage" `Quick of_jsonl_rejects_garbage;
          Alcotest.test_case "of_jsonl numbers file lines" `Quick of_jsonl_numbers_file_lines;
          Alcotest.test_case "diff reports changes" `Quick diff_reports_changes;
          Alcotest.test_case "diff det-only" `Quick diff_det_only;
        ] );
      ("codec", [ prop_round_trip; prop_same_bytes ]);
      ("domains", [ Alcotest.test_case "exact multi-domain counts" `Quick multi_domain_exact ]);
    ]
