(* Incrementally maintained canonical form of a *named* taskset.

   The admission daemon mutates its taskset one task at a time; paying
   a full sort + per-task re-format per mutation to rebuild the
   canonical cache key would make every verdict O(n log n) before the
   analyzer even runs.  This structure keeps the tasks in canonical
   order with their key fragments precomputed, so add/remove splice one
   entry (O(n) list surgery, no comparisons or formatting for the other
   n-1 tasks) and the key is a straight concatenation.

   Key-byte contract: [key d ~analyzer ~fpga_area] equals
   [Canonical.key ~analyzer ~fpga_area (taskset d)] for every reachable
   [d].  Equal tasks have equal fragments, so the tie order among them
   — where this structure and [Canonical.order]'s stable sort may
   disagree — can never change the key bytes, and (because equal tasks
   also have equal per-task checks) never changes remapped verdict
   bytes either; [test_admit.ml] asserts both over random mutation
   traces. *)

type entry = { name : string; task : Model.Task.t; frag : string }
type t = { entries : entry list (* canonical (compare_tasks) order *); size : int }

let empty = { entries = []; size = 0 }
let size t = t.size

let mem t name = List.exists (fun e -> e.name = name) t.entries

let add t (task : Model.Task.t) =
  let name = task.Model.Task.name in
  if name = "" then invalid_arg "Delta.add: task must be named";
  if mem t name then invalid_arg (Printf.sprintf "Delta.add: duplicate task name %S" name);
  let entry = { name; task; frag = Canonical.fragment task } in
  let rec insert = function
    | [] -> [ entry ]
    | e :: rest ->
      (* after equal entries: insertion order breaks ties, which the
         key/verdict contract above shows is unobservable *)
      if Canonical.compare_tasks entry.task e.task < 0 then entry :: e :: rest
      else e :: insert rest
  in
  { entries = insert t.entries; size = t.size + 1 }

let remove t name =
  let rec drop = function
    | [] -> invalid_arg (Printf.sprintf "Delta.remove: no task named %S" name)
    | e :: rest -> if e.name = name then rest else e :: drop rest
  in
  { entries = drop t.entries; size = t.size - 1 }

let of_tasks tasks = List.fold_left add empty tasks

let key t ~analyzer ~fpga_area =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Canonical.key_prefix ~analyzer ~fpga_area);
  List.iter (fun e -> Buffer.add_string buf e.frag) t.entries;
  Buffer.contents buf

let canonical_taskset t =
  match t.entries with
  | [] -> invalid_arg "Delta.canonical_taskset: empty"
  | entries ->
    Model.Taskset.of_list
      (List.map (fun e -> { e.task with Model.Task.name = "" }) entries)

(* canonical position -> index in [original] (the caller's task order,
   e.g. admission order).  Duplicate uses of an index are impossible
   because names are unique on both sides. *)
let order t ~original =
  let index_of name =
    let rec go i = function
      | [] -> invalid_arg (Printf.sprintf "Delta.order: %S not in original" name)
      | n :: rest -> if n = name then i else go (i + 1) rest
    in
    go 0 original
  in
  Array.of_list (List.map (fun e -> index_of e.name) t.entries)
