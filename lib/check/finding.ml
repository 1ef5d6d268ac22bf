type t = {
  severity : Audit.Diagnostic.severity;
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let error ~rule ~file ~line ~col message =
  { severity = Audit.Diagnostic.Error; rule; file; line; col; message }

let warning ~rule ~file ~line ~col message =
  { severity = Audit.Diagnostic.Warning; rule; file; line; col; message }

(* file, then position, then rule/message: the output order is a
   deterministic function of the tree, never of cmt read order *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let is_error t = match t.severity with Audit.Diagnostic.Error -> true | _ -> false
let is_warning t = match t.severity with Audit.Diagnostic.Warning -> true | _ -> false

let pp fmt t =
  Format.fprintf fmt "%s:%d:%d: %s[%s]: %s" t.file t.line t.col
    (Audit.Diagnostic.severity_name t.severity)
    t.rule t.message

let to_json t =
  Wire.Json.Obj
    [
      ("col", Wire.Json.Int t.col);
      ("file", Wire.Json.String t.file);
      ("line", Wire.Json.Int t.line);
      ("message", Wire.Json.String t.message);
      ("rule", Wire.Json.String t.rule);
      ("severity", Wire.Json.String (Audit.Diagnostic.severity_name t.severity));
    ]
