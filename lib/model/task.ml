type t = { name : string; exec : Time.t; deadline : Time.t; period : Time.t; area : int }

let invalid ~exec ~deadline ~period ~area =
  if not (Time.is_positive exec) then Some "Task.make: exec must be positive"
  else if not (Time.is_positive deadline) then Some "Task.make: deadline must be positive"
  else if not (Time.is_positive period) then Some "Task.make: period must be positive"
  else if area < 1 then Some "Task.make: area must be >= 1"
  else None

let make ?(name = "") ~exec ~deadline ~period ~area () =
  match invalid ~exec ~deadline ~period ~area with
  | Some msg -> invalid_arg msg
  | None -> { name; exec; deadline; period; area }

let of_decimal ?name ~exec ~deadline ~period ~area () =
  make ?name
    ~exec:(Time.of_decimal_string exec)
    ~deadline:(Time.of_decimal_string deadline)
    ~period:(Time.of_decimal_string period)
    ~area ()

let time_utilization t = Rat.div (Time.to_rat t.exec) (Time.to_rat t.period)
let system_utilization t = Rat.mul (time_utilization t) (Rat.of_int t.area)
let density t = Rat.div (Time.to_rat t.exec) (Time.to_rat t.deadline)
let is_implicit_deadline t = Time.equal t.deadline t.period
let is_constrained_deadline t = Time.(t.deadline <= t.period)

let equal a b =
  String.equal a.name b.name
  && Time.equal a.exec b.exec
  && Time.equal a.deadline b.deadline
  && Time.equal a.period b.period
  && a.area = b.area

let pp fmt t =
  Format.fprintf fmt "%s(C=%a, D=%a, T=%a, A=%d)"
    (if t.name = "" then "task" else t.name)
    Time.pp t.exec Time.pp t.deadline Time.pp t.period t.area
