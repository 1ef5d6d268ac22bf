type task_check = { task_index : int; satisfied : bool; lhs : Rat.t; rhs : Rat.t; note : string }
type t = { test_name : string; accepted : bool; checks : task_check list }

let accepted t = t.accepted
let make ~test_name ~checks = { test_name; accepted = List.for_all (fun c -> c.satisfied) checks; checks }

let reject_all_n ~test_name ~note n =
  let checks =
    List.init n (fun i -> { task_index = i; satisfied = false; lhs = Rat.zero; rhs = Rat.zero; note })
  in
  { test_name; accepted = false; checks }

let reject_all ~test_name ~note ts = reject_all_n ~test_name ~note (Model.Taskset.size ts)

let failing_tasks t =
  List.filter_map (fun c -> if c.satisfied then None else Some c.task_index) t.checks

let schema_version = 1

module Json = Wire.Json

(* fields in key order, so Json.to_string need not sort them *)
let check_to_json c =
  let tail =
    [
      ("rhs", Json.String (Rat.to_string c.rhs));
      ("satisfied", Json.Bool c.satisfied);
      ("task", Json.Int (c.task_index + 1));
    ]
  in
  Json.Obj
    (("lhs", Json.String (Rat.to_string c.lhs))
    :: (if c.note = "" then tail else ("note", Json.String c.note) :: tail))

let to_json ?version t =
  let checks = [ ("checks", Json.List (List.map check_to_json t.checks)) ] in
  Json.Obj
    (("accepted", Json.Bool t.accepted)
    :: ("analyzer", Json.String t.test_name)
    ::
    (match version with
     | Some v -> ("analyzer_version", Json.String v) :: checks
     | None -> checks))

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %s@," t.test_name (if t.accepted then "ACCEPT" else "REJECT");
  List.iter
    (fun c ->
      Format.fprintf fmt "  k=%d %s lhs=%a (%a) rhs=%a (%a)%s@," (c.task_index + 1)
        (if c.satisfied then "ok  " else "FAIL")
        Rat.pp c.lhs Rat.pp_approx c.lhs Rat.pp c.rhs Rat.pp_approx c.rhs
        (if c.note = "" then "" else " [" ^ c.note ^ "]"))
    t.checks;
  Format.fprintf fmt "@]"
