type t = Task.t array

let of_list tasks =
  if tasks = [] then invalid_arg "Taskset.of_list: empty taskset";
  Array.of_list tasks

let to_list = Array.to_list
let to_array t = Array.copy t
let size = Array.length
let nth t i = t.(i)

let sum_over t f = Rat.sum (List.map f (Array.to_list t))
let time_utilization t = sum_over t Task.time_utilization
let system_utilization t = sum_over t Task.system_utilization
let amax t = Array.fold_left (fun acc (task : Task.t) -> max acc task.area) 0 t
let amin t = Array.fold_left (fun acc (task : Task.t) -> min acc task.area) max_int t
let all_implicit_deadline t = Array.for_all Task.is_implicit_deadline t
let all_constrained_deadline t = Array.for_all Task.is_constrained_deadline t
let fits t ~fpga_area = amax t <= fpga_area

type hyperperiod = Finite of Time.t | Exceeds_cap

let hyperperiod ?(cap = Time.of_ticks 10_000_000) t =
  let cap = Time.ticks cap in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm_opt acc p = if acc > cap / p * p then None else Some (acc / gcd acc p * p) in
  let rec go acc i =
    if i >= Array.length t then Finite (Time.of_ticks acc)
    else begin
      let p = Time.ticks t.(i).Task.period in
      (* overflow-safe: check before multiplying *)
      let g = gcd acc p in
      if acc / g > cap / p then Exceeds_cap
      else
        match lcm_opt acc p with
        | Some l when l <= cap -> go l (i + 1)
        | _ -> Exceeds_cap
    end
  in
  go (Time.ticks t.(0).Task.period) 1

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "name,C,D,T,A\n";
  Array.iter
    (fun (task : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%d\n" task.name (Time.to_string task.exec)
           (Time.to_string task.deadline) (Time.to_string task.period) task.area))
    t;
  Buffer.contents buf

let of_csv s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  match lines with
  | [] -> invalid_arg "Taskset.of_csv: empty input"
  | header :: rows ->
    if String.trim header <> "name,C,D,T,A" then invalid_arg "Taskset.of_csv: bad header";
    let parse_row row =
      match String.split_on_char ',' (String.trim row) with
      | [ name; c; d; p; a ] ->
        let area =
          match int_of_string_opt (String.trim a) with
          | Some a -> a
          | None -> invalid_arg "Taskset.of_csv: bad area"
        in
        Task.of_decimal ~name ~exec:(String.trim c) ~deadline:(String.trim d)
          ~period:(String.trim p) ~area ()
      | _ -> invalid_arg "Taskset.of_csv: bad row"
    in
    of_list (List.map parse_row rows)

(* --- columnar view --- *)

module Columns = struct
  type t = {
    n : int;
    exec : int array;
    deadline : int array;
    period : int array;
    area : int array;
    names : string array;
  }

  let of_taskset ts =
    let n = Array.length ts in
    let exec = Array.make n 0
    and deadline = Array.make n 0
    and period = Array.make n 0
    and area = Array.make n 0
    and names = Array.make n "" in
    Array.iteri
      (fun i (task : Task.t) ->
        exec.(i) <- Time.ticks task.exec;
        deadline.(i) <- Time.ticks task.deadline;
        period.(i) <- Time.ticks task.period;
        area.(i) <- task.area;
        names.(i) <- task.name)
      ts;
    { n; exec; deadline; period; area; names }

  let to_taskset c =
    of_list
      (List.init c.n (fun i ->
           Task.make ~name:c.names.(i) ~exec:(Time.of_ticks c.exec.(i))
             ~deadline:(Time.of_ticks c.deadline.(i))
             ~period:(Time.of_ticks c.period.(i))
             ~area:c.area.(i) ()))
end

let equal a b = Array.length a = Array.length b && Array.for_all2 Task.equal a b

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri (fun i task -> Format.fprintf fmt "%s%a" (if i > 0 then "; " else "") Task.pp task) t;
  Format.fprintf fmt "@]"
