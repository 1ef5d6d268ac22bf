(* Shared I/O layer of the benchmark harness: the results directory
   and the schema-versioned BENCH_core.json row format.

   This module deliberately lives outside the determinism scope of
   check-src (wall clocks and the filesystem are its whole job); the
   analyzers it measures stay inside. *)

let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755

let write_file path contents =
  ensure_results_dir ();
  let oc = open_out (Filename.concat results_dir path) in
  output_string oc contents;
  close_out oc

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* --- BENCH_core.json rows --- *)

type core_row = {
  analyzer : string;
  n : int;
  mode : string;  (* "single" | "batch" | "wide" *)
  ns_per_decide : int;
  truncated : bool;  (* measured under an expired --budget-ms, or skipped *)
}

(* v3 counts whole nanoseconds, so the document holds no float and
   goes through Wire.Json like every other JSON document; v1 and v2
   (fractional microseconds) are refused *)
let core_schema_version = 3

module Json = Wire.Json

(* fields in key order, so Json.to_string need not sort them *)
let core_row_json r =
  Json.Obj
    [
      ("analyzer", Json.String r.analyzer);
      ("mode", Json.String r.mode);
      ("n", Json.Int r.n);
      ("ns_per_decide", Json.Int r.ns_per_decide);
      ("truncated", Json.Bool r.truncated);
    ]

let core_doc rows =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "bench-core");
         ("results", Json.List (List.map core_row_json rows));
         ("schema_version", Json.Int core_schema_version);
         ("unit", Json.String "ns/decide");
       ])
  ^ "\n"

let ( let* ) = Result.bind

let get ctx key decode json =
  match Json.member key json with
  | Some v -> decode ~ctx:(ctx ^ key) v
  | None -> Error (ctx ^ key ^ ": missing")

let to_bool ~ctx = function Json.Bool b -> Ok b | _ -> Error (ctx ^ ": expected a boolean")

let core_row_of_json i json =
  let ctx = Printf.sprintf "results[%d]." i in
  let* analyzer = get ctx "analyzer" Json.to_str json in
  let* n = get ctx "n" Json.to_int json in
  let* mode = get ctx "mode" Json.to_str json in
  let* ns_per_decide = get ctx "ns_per_decide" Json.to_int json in
  let* truncated = get ctx "truncated" to_bool json in
  Ok { analyzer; n; mode; ns_per_decide; truncated }

let parse_core contents =
  let* doc = Json.of_string contents in
  let* version = get "" "schema_version" Json.to_int doc in
  if version <> core_schema_version then
    Error
      (Printf.sprintf "schema_version %d is not supported (this reader wants %d)" version
         core_schema_version)
  else
    let* results = get "" "results" Json.to_list doc in
    List.fold_right
      (fun row rows ->
        let* row = row in
        let* rows = rows in
        Ok (row :: rows))
      (List.mapi core_row_of_json results)
      (Ok [])

(* --- wall-clock budgets (--budget-ms) --- *)

type budget = { deadline : float option }

let budget_of_ms ms =
  { deadline = Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)) ms }

let within b =
  match b.deadline with None -> true | Some d -> Unix.gettimeofday () < d
