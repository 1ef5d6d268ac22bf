type partition = { width : int; tasks : Model.Task.t list; load : Rat.t }
type plan = { partitions : partition list; unassigned : Model.Task.t list }
type uniproc_test = Density | Demand_bound

let density (task : Model.Task.t) =
  let d = Model.Time.to_rat task.deadline and t = Model.Time.to_rat task.period in
  Rat.div (Model.Time.to_rat task.exec) (Rat.min d t)

let used_width plan = List.fold_left (fun acc p -> acc + p.width) 0 plan.partitions

(* feasibility of a task list on one serialized partition *)
let tasks_feasible test tasks =
  match tasks with
  | [] -> true
  | _ -> (
    match test with
    | Density ->
      Rat.compare (Rat.sum (List.map density tasks)) Rat.one <= 0
    | Demand_bound -> Dbf.schedulable (Model.Taskset.of_list tasks))

let first_fit_decreasing ?(test = Density) ~fpga_area ts =
  let tasks =
    List.sort
      (fun (a : Model.Task.t) (b : Model.Task.t) -> compare b.area a.area)
      (Model.Taskset.to_list ts)
  in
  let place plan (task : Model.Task.t) =
    let fits p = task.area <= p.width && tasks_feasible test (task :: p.tasks) in
    let rec into = function
      | [] -> None
      | p :: rest when fits p ->
        Some ({ p with tasks = task :: p.tasks; load = Rat.add p.load (density task) } :: rest)
      | p :: rest -> Option.map (fun r -> p :: r) (into rest)
    in
    match into plan.partitions with
    | Some partitions -> { plan with partitions }
    | None ->
      (* the free width, which cannot wrap where a sum of widths could *)
      if task.area <= fpga_area - used_width plan && tasks_feasible test [ task ] then
        {
          plan with
          partitions =
            plan.partitions @ [ { width = task.area; tasks = [ task ]; load = density task } ];
        }
      else { plan with unassigned = task :: plan.unassigned }
  in
  List.fold_left place { partitions = []; unassigned = [] } tasks

let schedulable ?(test = Density) plan =
  plan.unassigned = [] && List.for_all (fun p -> tasks_feasible test p.tasks) plan.partitions

let accepts ?(test = Density) ~fpga_area ts =
  schedulable ~test (first_fit_decreasing ~test ~fpga_area ts)

let pp fmt plan =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i p ->
      Format.fprintf fmt "partition %d (width %d, density %a): %s@," i p.width Rat.pp_approx p.load
        (String.concat ", " (List.map (fun (t : Model.Task.t) -> t.name) p.tasks)))
    plan.partitions;
  if plan.unassigned <> [] then
    Format.fprintf fmt "unassigned: %s@,"
      (String.concat ", " (List.map (fun (t : Model.Task.t) -> t.name) plan.unassigned));
  Format.fprintf fmt "@]"
