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

(* checks at canonical position [p] belong to original task [order.(p)];
   a stable sort keeps checks of one task in their order *)
let remap order t =
  let checks =
    List.map (fun c -> { c with task_index = order.(c.task_index) }) t.checks
    |> List.stable_sort (fun a b -> Int.compare a.task_index b.task_index)
  in
  make ~test_name:t.test_name ~checks

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

module Rendered = struct
  type verdict = t
  type t = { accepted : bool; test_name : string; tasks : int array; checks : string array }

  (* the bytes of [Json.String (Rat.to_string r)]: a rational's
     digits, sign and slash need no escape *)
  let add_rat buf r =
    Buffer.add_char buf '"';
    Bignum.add_decimal buf (Rat.num r);
    if not (Bignum.equal (Rat.den r) Bignum.one) then begin
      Buffer.add_char buf '/';
      Bignum.add_decimal buf (Rat.den r)
    end;
    Buffer.add_char buf '"'

  (* every byte [check_to_json] prints before the task number *)
  let fragment buf c =
    Buffer.clear buf;
    Buffer.add_string buf {|{"lhs":|};
    add_rat buf c.lhs;
    if c.note <> "" then begin
      Buffer.add_string buf {|,"note":|};
      Json.add_string buf c.note
    end;
    Buffer.add_string buf {|,"rhs":|};
    add_rat buf c.rhs;
    Buffer.add_string buf (if c.satisfied then {|,"satisfied":true,"task":|} else {|,"satisfied":false,"task":|});
    Buffer.contents buf

  let of_verdict (v : verdict) =
    let checks = Array.of_list v.checks in
    let buf = Buffer.create 128 in
    {
      accepted = v.accepted;
      test_name = v.test_name;
      tasks = Array.map (fun c -> c.task_index) checks;
      checks = Array.map (fragment buf) checks;
    }

  (* a counting sort by original index: stable, and no comparisons *)
  let remap order r =
    let n = Array.length order and m = Array.length r.tasks in
    let next = Array.make (n + 1) 0 in
    for p = 0 to m - 1 do
      let i = order.(r.tasks.(p)) in
      next.(i + 1) <- next.(i + 1) + 1
    done;
    for i = 1 to n do
      next.(i) <- next.(i) + next.(i - 1)
    done;
    let tasks = Array.make m 0 and checks = Array.make m "" in
    for p = 0 to m - 1 do
      let i = order.(r.tasks.(p)) in
      let q = next.(i) in
      next.(i) <- q + 1;
      tasks.(q) <- i;
      checks.(q) <- r.checks.(p)
    done;
    { r with tasks; checks }
end

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
