type fit_rule = Fkf | Nf
type order = Edf | Us_first of { threshold : Rat.t; measure : [ `Time | `System ] }
type t = { order : order; rule : fit_rule }

let edf_fkf = { order = Edf; rule = Fkf }
let edf_nf = { order = Edf; rule = Nf }
let edf_us ~threshold ~measure ~rule = { order = Us_first { threshold; measure }; rule }

let is_heavy ~threshold ~measure ~fpga_area (task : Model.Task.t) =
  let u =
    match measure with
    | `Time -> Model.Task.time_utilization task
    | `System -> Rat.div (Model.Task.system_utilization task) (Rat.of_int fpga_area)
  in
  Rat.compare u threshold > 0

let priority t ~fpga_area tasks =
  match t.order with
  | Edf -> Job.compare_edf
  | Us_first { threshold; measure } ->
    let heavy = Array.map (is_heavy ~threshold ~measure ~fpga_area) tasks in
    fun a b ->
      match (heavy.(a.Job.task_index), heavy.(b.Job.task_index)) with
      | true, false -> -1
      | false, true -> 1
      | true, true ->
        let c = Int.compare a.Job.task_index b.Job.task_index in
        if c <> 0 then c else Int.compare a.Job.id b.Job.id
      | false, false -> Job.compare_edf a b

let pp fmt t =
  let rule = match t.rule with Fkf -> "FkF" | Nf -> "NF" in
  match t.order with
  | Edf -> Format.fprintf fmt "EDF-%s" rule
  | Us_first { threshold; measure } ->
    Format.fprintf fmt "EDF-US[%a,%s]-%s" Rat.pp threshold
      (match measure with `Time -> "time" | `System -> "system")
      rule
