(* Every front end returns the same verdict for the same taskset.  One
   generator of (analyzer, device area, taskset, id) feeds four of
   them: the verdict object [redf analyze --format json] prints
   ([Core.Report.verdict_json] of a fresh decide), the service engine
   ([Server.Engine.handle_lines]: cold, warm, with the tasks permuted
   and renamed, and with the cache off), the [redf batch] executable,
   and the admission daemon's [what-if] after it admitted the other
   tasks.  Each must give the same [accepted], [analyzer],
   [analyzer_version] and [checks]. *)

module Json = Wire.Json

let () = Exact.Registry.ensure ()

(* the CLI built beside this test (test/dune depends on it) *)
let redf =
  List.fold_left Filename.concat (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "redf.exe" ]

type case = {
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  taskset : Model.Taskset.t;  (* unique, non-empty names: the daemon admits by name *)
  permuted : Model.Taskset.t;  (* the same tasks reordered and renamed *)
  id : Json.t;
}

let analyzers =
  List.map
    (fun name -> match Core.Analyzer.of_name name with Ok a -> a | Error e -> failwith e)
    [ "DP"; "GN1"; "GN2"; "NEC"; "approx[0.25]"; "approx[1/10]"; "GN1-printed"; "DP-original" ]

let named prefix tasks =
  Model.Taskset.of_list
    (List.mapi (fun i t -> { t with Model.Task.name = Printf.sprintf "%s\"%d\\" prefix i }) tasks)

let case_gen =
  let open QCheck2.Gen in
  let task =
    let* t = int_range 2 10 and* d = int_range 1 12 and* a = int_range 1 12 in
    let* c = int_range 1 (1000 * min t d) in
    return
      (Model.Task.make ~exec:(Model.Time.of_ticks c) ~deadline:(Model.Time.of_units d)
         ~period:(Model.Time.of_units t) ~area:a ())
  in
  let* tasks =
    frequency
      [
        (8, list_size (int_range 1 6) task);
        ( 1,
          oneofl
            [
              Model.Taskset.to_list Core_helpers.sixteen_digit;
              Model.Taskset.to_list Core_helpers.sixteen_digit_constrained;
            ] );
      ]
  in
  let* analyzer = oneofl analyzers and* fpga_area = int_range 6 16 in
  let* shuffled = shuffle_l tasks in
  let* id =
    oneof
      [
        map (fun i -> Json.Int i) int;
        map (fun s -> Json.String s) (oneofl [ "q\"1"; "back\\slash"; "\"\\\""; "plain" ]);
      ]
  in
  return { analyzer; fpga_area; taskset = named "t" tasks; permuted = named "p" shuffled; id }

let line c ts =
  Server.Protocol.request_line ~analyzer:c.analyzer.Core.Analyzer.name ~fpga_area:c.fpga_area ~id:c.id
    ts

(* the compared part of a verdict object or a reply carrying one *)
let verdict_of json =
  Json.to_string
    (Json.Obj
       (List.map
          (fun k -> (k, Option.value (Json.member k json) ~default:Json.Null))
          [ "accepted"; "analyzer"; "analyzer_version"; "checks" ]))

let verdict_of_line reply =
  match Json.of_string reply with Ok json -> verdict_of json | Error e -> "unreadable: " ^ e

let analyze c ts =
  verdict_of (Core.Report.verdict_json c.analyzer (c.analyzer.Core.Analyzer.decide ~fpga_area:c.fpga_area ts))

let engine ?(cache_size = 64) c =
  Server.Engine.with_engine ~cache_size ~jobs:1 (fun e ->
      let serve ts = verdict_of_line (Server.Engine.handle_lines e [| line c ts |]).(0) in
      let cold = serve c.taskset in
      let warm = serve c.taskset in
      let permuted = serve c.permuted in
      (cold, warm, permuted))

(* admit the tasks in order while the daemon accepts them, then ask
   what-if for the rest: the hypothetical set is the taskset, in its
   own order *)
let what_if c =
  Core_helpers.with_temp_dir "frontends" @@ fun dir ->
  match Admit.Daemon.create ~analyzer:c.analyzer ~fpga_area:c.fpga_area ~dir () with
  | Error e -> "daemon: " ^ e
  | Ok (d, _) ->
    Fun.protect ~finally:(fun () -> Admit.Daemon.close d) @@ fun () ->
    let task t = Core.Report.task_json t in
    let rec admit = function
      | [] -> []
      | t :: rest as pending -> (
        let reply =
          Admit.Daemon.handle_line d
            (Json.to_string (Json.Obj [ ("op", Json.String "add-task"); ("task", task t) ]))
        in
        match Json.of_string reply with
        | Ok json when Json.member "admitted" json = Some (Json.Bool true) -> admit rest
        | _ -> pending)
    in
    let rest = admit (Model.Taskset.to_list c.taskset) in
    verdict_of_line
      (Admit.Daemon.handle_line d
         (Json.to_string
            (Json.Obj [ ("op", Json.String "what-if"); ("add", Json.List (List.map task rest)) ])))

let batch lines =
  let file = Filename.temp_file "redf-test-frontends" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_bin file (fun oc -> Array.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let ic = Unix.open_process_args_in redf [| redf; "batch"; file |] in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "") |> Array.of_list
  | _ -> Alcotest.failf "redf batch %s failed" file

let same_everywhere () =
  let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 21 |]) ~n:150 case_gen in
  let batched = batch (Array.of_list (List.map (fun c -> line c c.taskset) cases)) in
  Alcotest.(check int) "one batch reply per request" (List.length cases) (Array.length batched);
  List.iteri
    (fun i c ->
      let want = analyze c c.taskset and want_permuted = analyze c c.permuted in
      let cold, warm, permuted = engine c in
      let _, off, permuted_off = engine ~cache_size:0 c in
      let check what got want =
        if not (String.equal got want) then
          Alcotest.failf "case %d (%s, area %d), %s:\n  got  %s\n  want %s\n%s" i
            c.analyzer.Core.Analyzer.name c.fpga_area what got want
            (Model.Taskset.to_csv c.taskset)
      in
      check "engine, cold" cold want;
      check "engine, warm" warm want;
      check "engine, permuted and renamed" permuted want_permuted;
      check "engine, no cache" off want;
      check "engine, no cache, permuted" permuted_off want_permuted;
      check "redf batch" (verdict_of_line batched.(i)) want;
      check "admit what-if" (what_if c) want)
    cases

(* A task object with one fault: a time field missing, not a decimal,
   out of range or not a time; an area that is not an integer; or
   parameters [Task.make] refuses.  With its name, which the daemon
   puts in a [Task.make] error. *)
let malformed_task_gen =
  let open QCheck2.Gen in
  let time_fault =
    oneofl
      [
        None;
        Some {|"1.2345"|};
        Some {|"x"|};
        Some {|""|};
        Some {|"1e3"|};
        Some {|"99999999999999999"|};
        Some "9223372036854775";
        Some "null";
        Some "true";
        Some "[7]";
      ]
  in
  let area_fault = oneofl [ None; Some {|"3"|}; Some "null"; Some "[3]"; Some "false" ] in
  let make_fault =
    oneofl
      [
        ("C", Some "0");
        ("C", Some {|"-0.5"|});
        ("D", Some {|"0"|});
        ("D", Some "-7");
        ("T", Some "0");
        ("T", Some {|"-0.001"|});
        ("A", Some "0");
        ("A", Some "-2");
      ]
  in
  let* fault =
    oneof
      [
        pair (oneofl [ "C"; "D"; "T" ]) time_fault;
        map (fun v -> ("A", v)) area_fault;
        make_fault;
      ]
  and* name = oneofl [ "n"; "tau1"; "q\"\\" ] in
  let field (key, value) =
    let value = if key = fst fault then snd fault else Some value in
    Option.map (Printf.sprintf "%S:%s" key) value
  in
  let fields =
    List.filter_map field [ ("C", {|"1.5"|}); ("D", "7"); ("T", {|"7"|}); ("A", "3") ]
  in
  let name_field = Printf.sprintf {|"name":%s|} (Json.to_string (Json.String name)) in
  return (name, "{" ^ String.concat "," (name_field :: fields) ^ "}")

(* the error message of a reply, with [prefix] removed *)
let reason ~prefixes reply =
  match Json.of_string reply with
  | Ok json -> (
    match Json.member "error" json with
    | Some (Json.String msg) -> (
      match List.find_opt (fun p -> String.starts_with ~prefix:p msg) prefixes with
      | Some p -> String.sub msg (String.length p) (String.length msg - String.length p)
      | None -> Alcotest.failf "%S has none of the prefixes %s" msg (String.concat ", " prefixes))
    | _ -> Alcotest.failf "not an error: %s" reply)
  | Error e -> Alcotest.failf "unreadable reply (%s): %s" e reply

let one_reason () =
  let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 22 |]) ~n:200 malformed_task_gen in
  let dp = match Core.Analyzer.of_name "DP" with Ok a -> a | Error e -> failwith e in
  Core_helpers.with_temp_dir "frontends" @@ fun dir ->
  match Admit.Daemon.create ~analyzer:dp ~fpga_area:10 ~dir () with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok (d, _) ->
    Fun.protect ~finally:(fun () -> Admit.Daemon.close d) @@ fun () ->
    Server.Engine.with_engine ~jobs:1 @@ fun engine ->
    List.iter
      (fun (name, task) ->
        let served =
          (Server.Engine.handle_lines engine
             [| Printf.sprintf {|{"analyzer":"DP","fpga_area":10,"tasks":[%s]}|} task |]).(0)
        in
        let admitted =
          Admit.Daemon.handle_line d (Printf.sprintf {|{"op":"add-task","task":%s}|} task)
        in
        let want = reason ~prefixes:[ "task 1: " ] served in
        let got = reason ~prefixes:[ "task: "; Printf.sprintf "task %S: " name ] admitted in
        if want = "" || not (String.equal got want) then
          Alcotest.failf "task %s:\n  serve  %s\n  admit  %s" task served admitted)
      cases

let () =
  Alcotest.run "frontends"
    [
      ("verdicts", [ Alcotest.test_case "one verdict, every front end" `Quick same_everywhere ]);
      ("tasks", [ Alcotest.test_case "one reason for a malformed task" `Quick one_reason ]);
    ]
