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

let find_sub haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i =
    if i + n > h then None else if String.sub haystack i n = needle then Some i else go (i + 1)
  in
  if n = 0 then Some 0 else go 0

(* --- BENCH_core.json rows --- *)

type core_row = {
  analyzer : string;
  n : int;
  mode : string;  (* "single" | "batch" *)
  us_per_decide : float;
  truncated : bool;  (* measured under an expired --budget-ms, or skipped *)
}

(* v1 rows had only analyzer/n/us_per_decide; v2 adds mode and the
   truncation flag.  The parser accepts both, defaulting mode to
   "single" and truncated to false, so a committed v1 baseline keeps
   working as a --compare target. *)
let core_schema_version = 2

let core_row_to_json r =
  Printf.sprintf "{\"analyzer\":%S,\"n\":%d,\"mode\":%S,\"us_per_decide\":%.2f,\"truncated\":%b}"
    r.analyzer r.n r.mode r.us_per_decide r.truncated

let core_doc rows =
  Printf.sprintf
    "{\"kind\":\"bench-core\",\"results\":[%s],\"schema_version\":%d,\"unit\":\"us/decide\"}\n"
    (String.concat "," (List.map core_row_to_json rows))
    core_schema_version

(* Field extraction by substring scan rather than a JSON parser:
   Core.Json refuses floats by design, and the row grammar is flat
   (no nested objects or arrays), so textual slicing is exact. *)
let string_field obj name =
  match find_sub obj (Printf.sprintf "\"%s\":\"" name) with
  | None -> None
  | Some i -> (
    let start = i + String.length name + 4 in
    match String.index_from_opt obj start '"' with
    | None -> None
    | Some stop -> Some (String.sub obj start (stop - start)))

let raw_field obj name =
  match find_sub obj (Printf.sprintf "\"%s\":" name) with
  | None -> None
  | Some i ->
    let start = i + String.length name + 3 in
    let stop = ref start in
    while !stop < String.length obj && obj.[!stop] <> ',' && obj.[!stop] <> '}' do incr stop done;
    Some (String.trim (String.sub obj start (!stop - start)))

let parse_core_row obj =
  match (string_field obj "analyzer", raw_field obj "n", raw_field obj "us_per_decide") with
  | Some analyzer, Some n_raw, Some us_raw -> (
    match (int_of_string_opt n_raw, float_of_string_opt us_raw) with
    | Some n, Some us ->
      let mode = Option.value (string_field obj "mode") ~default:"single" in
      let truncated = raw_field obj "truncated" = Some "true" in
      Some { analyzer; n; mode; us_per_decide = us; truncated }
    | _ -> None)
  | _ -> None

(* The array is split by a string-aware scan, not by the first ']':
   analyzer names like "approx[1/10]" put brackets inside strings. *)
let parse_core contents =
  match find_sub contents "\"results\":[" with
  | None -> Error "not a bench-core document (no \"results\" array)"
  | Some i ->
    let len = String.length contents in
    let pos = ref (i + String.length "\"results\":[") in
    let depth = ref 0 and in_string = ref false and escaped = ref false in
    let buf = Buffer.create 64 in
    let objs = ref [] in
    let closed = ref false and err = ref None in
    while (not !closed) && !err = None && !pos < len do
      let c = contents.[!pos] in
      if !in_string then begin
        if !depth > 0 then Buffer.add_char buf c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else begin
        match c with
        | '"' ->
          in_string := true;
          if !depth > 0 then Buffer.add_char buf c
        | '{' ->
          incr depth;
          Buffer.add_char buf c
        | '}' ->
          if !depth <= 0 then err := Some "mismatched '}' in \"results\" array"
          else begin
            Buffer.add_char buf c;
            decr depth;
            if !depth = 0 then begin
              objs := Buffer.contents buf :: !objs;
              Buffer.clear buf
            end
          end
        | ']' when !depth = 0 -> closed := true
        | c -> if !depth > 0 then Buffer.add_char buf c
      end;
      incr pos
    done;
    (match !err with
    | Some e -> Error e
    | None ->
      if not !closed then Error "unterminated \"results\" array"
      else
        let objs = List.rev !objs in
        let rows = List.filter_map parse_core_row objs in
        if List.length rows = List.length objs then Ok rows
        else Error "malformed row in \"results\" array")

(* --- wall-clock budgets (--budget-ms) --- *)

type budget = { deadline : float option }

let budget_of_ms ms =
  { deadline = Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.0)) ms }

let within b =
  match b.deadline with None -> true | Some d -> Unix.gettimeofday () < d
