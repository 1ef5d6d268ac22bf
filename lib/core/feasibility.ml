(* a.area + b.area > A(H), without the sum, which can wrap *)
let exclusive ~fpga_area (a : Model.Task.t) (b : Model.Task.t) = a.area > fpga_area - b.area

(* utilization C/T: the long-run fraction of time the task must hold the
   device under any schedule.  Density C/min(D,T) would be wrong here —
   it overestimates long-run demand for constrained deadlines, and a
   necessary condition must never overestimate. *)
let long_run_demand (task : Model.Task.t) =
  Rat.div (Model.Time.to_rat task.exec) (Model.Time.to_rat task.period)

let exclusion_cliques ~fpga_area ts =
  let tasks = Model.Taskset.to_array ts in
  let n = Array.length tasks in
  let excl i j = exclusive ~fpga_area tasks.(i) tasks.(j) in
  (* greedy: grow a clique from each seed in decreasing-area order *)
  let order =
    List.sort (fun i j -> compare tasks.(j).Model.Task.area tasks.(i).Model.Task.area) (List.init n Fun.id)
  in
  let cliques = ref [] in
  List.iter
    (fun seed ->
      let clique = ref [ seed ] in
      List.iter
        (fun cand -> if cand <> seed && List.for_all (excl cand) !clique then clique := cand :: !clique)
        order;
      let sorted = List.sort compare !clique in
      if List.length sorted > 1 && not (List.mem sorted !cliques) then cliques := sorted :: !cliques)
    order;
  List.rev !cliques

type violation =
  | Exec_exceeds_window of int
  | Device_overloaded of { us : Rat.t }
  | Clique_overloaded of { tasks : int list; load : Rat.t }

let check ~fpga_area ts =
  let tasks = Model.Taskset.to_array ts in
  let violations = ref [] in
  Array.iteri
    (fun i (t : Model.Task.t) ->
      let window = Model.Time.min t.deadline t.period in
      if Model.Time.(t.exec > window) then violations := Exec_exceeds_window i :: !violations)
    tasks;
  let us = Model.Taskset.system_utilization ts in
  if Rat.compare us (Rat.of_int fpga_area) > 0 then
    violations := Device_overloaded { us } :: !violations;
  List.iter
    (fun clique ->
      let load = Rat.sum (List.map (fun i -> long_run_demand tasks.(i)) clique) in
      if Rat.compare load Rat.one > 0 then
        violations := Clique_overloaded { tasks = clique; load } :: !violations)
    (exclusion_cliques ~fpga_area ts);
  List.rev !violations

let feasible_maybe ~fpga_area ts =
  match check ~fpga_area ts with [] -> true | _ :: _ -> false

let pp_violation fmt = function
  | Exec_exceeds_window i -> Format.fprintf fmt "task %d needs C > min(D,T)" (i + 1)
  | Device_overloaded { us } ->
    Format.fprintf fmt "system utilization %a exceeds the device area" Rat.pp_approx us
  | Clique_overloaded { tasks; load } ->
    Format.fprintf fmt "mutually-exclusive tasks {%s} demand %a > 1 of a serial resource"
      (String.concat "," (List.map (fun i -> string_of_int (i + 1)) tasks))
      Rat.pp_approx load
