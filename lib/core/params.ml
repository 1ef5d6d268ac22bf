type task_q = { index : int; area : int; area_q : Rat.t; c : Rat.t; d : Rat.t; t : Rat.t }

let of_task index (task : Model.Task.t) =
  {
    index;
    area = task.area;
    area_q = Rat.of_int task.area;
    c = Model.Time.to_rat task.exec;
    d = Model.Time.to_rat task.deadline;
    t = Model.Time.to_rat task.period;
  }

let of_taskset ts = Array.of_list (List.mapi of_task (Model.Taskset.to_list ts))
let time_utilization q = Rat.div q.c q.t
let system_utilization q = Rat.mul (time_utilization q) q.area_q
let density q = Rat.div q.c q.d
let amax qs = Array.fold_left (fun acc q -> max acc q.area) 0 qs
let amin qs = Array.fold_left (fun acc q -> min acc q.area) max_int qs
let total_ut qs = Array.fold_left (fun acc q -> Rat.add acc (time_utilization q)) Rat.zero qs
let total_us qs = Array.fold_left (fun acc q -> Rat.add acc (system_utilization q)) Rat.zero qs
