(* Input resolution, aggregation and rendering.  A PATH argument is a
   .cmt file, a directory scanned recursively for .cmt files, or a
   source directory whose cmts live under _build/default (so
   [redf check-src lib] works from a repo checkout after [dune build]).
   Directory listings are sorted: the report is a pure function of the
   tree, never of readdir order. *)

type report = { findings : Finding.t list; modules : int }

let is_cmt name =
  String.length name > 4 && String.sub name (String.length name - 4) 4 = ".cmt"

let rec scan_dir acc dir =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then scan_dir acc path
      else if is_cmt entry then path :: acc
      else acc)
    acc entries

let build_mirror path = Filename.concat (Filename.concat "_build" "default") path

let resolve_input path =
  if Sys.file_exists path && (not (Sys.is_directory path)) && is_cmt path then Ok [ path ]
  else begin
    let dirs =
      (if Sys.file_exists path && Sys.is_directory path then [ path ] else [])
      @ (if Sys.file_exists (build_mirror path) && Sys.is_directory (build_mirror path) then
           [ build_mirror path ]
         else [])
    in
    match dirs with
    | [] -> Error (Printf.sprintf "%s: no such file or directory (nor under _build/default)" path)
    | dirs -> (
      match List.concat_map (fun d -> scan_dir [] d) dirs with
      | [] -> Error (Printf.sprintf "%s: no .cmt files found (build the tree first)" path)
      | cmts -> Ok cmts)
  end

let resolve_inputs paths =
  let rec go acc = function
    | [] -> Ok (List.sort_uniq String.compare acc)
    | p :: rest -> (
      match resolve_input p with Error e -> Error e | Ok cmts -> go (cmts @ acc) rest)
  in
  go [] paths

let run ?(rules = Rules.all) paths =
  match resolve_inputs paths with
  | Error e -> Error e
  | Ok cmts ->
    let rec analyze acc modules = function
      | [] -> Ok { findings = List.sort Finding.compare acc; modules }
      | cmt :: rest -> (
        match Analysis.run_cmt ~rules cmt with
        | Error e -> Error e
        | Ok r -> analyze (r.Analysis.findings @ acc) (modules + 1) rest)
    in
    analyze [] 0 cmts

let errors t = List.length (List.filter Finding.is_error t.findings)
let warnings t = List.length (List.filter Finding.is_warning t.findings)

let clean ?(strict = false) t =
  errors t = 0 && ((not strict) || warnings t = 0)

let exit_code ?strict t = if clean ?strict t then 0 else 1

let pp fmt t =
  List.iter (fun f -> Format.fprintf fmt "%a@," Finding.pp f) t.findings;
  let e = errors t and w = warnings t in
  if e = 0 && w = 0 then
    Format.fprintf fmt "check-src: clean (%d modules)" t.modules
  else
    Format.fprintf fmt "check-src: %d error%s, %d warning%s (%d modules)" e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
      t.modules

let schema_version = 1

let to_json t =
  Wire.Json.Obj
    [
      ("clean", Wire.Json.Bool (clean t));
      ("errors", Wire.Json.Int (errors t));
      ("findings", Wire.Json.List (List.map Finding.to_json t.findings));
      ("kind", Wire.Json.String "check-src");
      ("modules", Wire.Json.Int t.modules);
      ("schema_version", Wire.Json.Int schema_version);
      ("warnings", Wire.Json.Int (warnings t));
    ]
