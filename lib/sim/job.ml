module Time = Model.Time

type t = {
  id : int;
  task_index : int;
  task : Model.Task.t;
  release : Time.t;
  abs_deadline : Time.t;
  mutable remaining : Time.t;
}

let make ~id ~task_index ~task ~release =
  {
    id;
    task_index;
    task;
    release;
    abs_deadline = Time.add release task.Model.Task.deadline;
    remaining = task.Model.Task.exec;
  }

let is_finished j = not (Time.is_positive j.remaining)

let compare_edf a b =
  let c = Time.compare a.abs_deadline b.abs_deadline in
  if c <> 0 then c
  else
    let c = Time.compare a.release b.release in
    if c <> 0 then c else Int.compare a.id b.id

let area j = j.task.Model.Task.area
