module Columns = Model.Taskset.Columns

let compare_tasks (a : Model.Task.t) (b : Model.Task.t) =
  let t = Model.Time.ticks in
  let c = Int.compare (t a.Model.Task.exec) (t b.Model.Task.exec) in
  if c <> 0 then c
  else
    let c = Int.compare (t a.Model.Task.deadline) (t b.Model.Task.deadline) in
    if c <> 0 then c
    else
      let c = Int.compare (t a.Model.Task.period) (t b.Model.Task.period) in
      if c <> 0 then c else Int.compare a.Model.Task.area b.Model.Task.area

(* sorting column indices instead of task records keeps key derivation
   allocation-light on the batch paths: no Task list rebuild per probe,
   just one int array over the existing tick columns *)
let order_cols (cols : Columns.t) =
  let exec = cols.Columns.exec
  and deadline = cols.Columns.deadline
  and period = cols.Columns.period
  and area = cols.Columns.area in
  let idx = Array.init cols.Columns.n Fun.id in
  (* stable: ties sort by original index, so equal tasks keep their
     relative order and the permutation is deterministic *)
  Array.sort
    (fun i j ->
      let c = Int.compare exec.(i) exec.(j) in
      if c <> 0 then c
      else
        let c = Int.compare deadline.(i) deadline.(j) in
        if c <> 0 then c
        else
          let c = Int.compare period.(i) period.(j) in
          if c <> 0 then c
          else
            let c = Int.compare area.(i) area.(j) in
            if c <> 0 then c else Int.compare i j)
    idx;
  idx

let order ts = order_cols (Columns.of_taskset ts)

let apply order ts =
  Model.Taskset.of_list
    (Array.to_list
       (Array.map (fun i -> { (Model.Taskset.nth ts i) with Model.Task.name = "" }) order))

(* Printf-free: a key is built on every cache probe *)
let add_int buf n = Buffer.add_string buf (Bignum.string_of_int n)

(* the one writer of a task's key piece, "C,D,T,A;" in ticks; shared
   with {!Delta}, which rebuilds keys incrementally, so both produce the
   same bytes *)
let add_fragment buf ~exec ~deadline ~period ~area =
  add_int buf exec;
  Buffer.add_char buf ',';
  add_int buf deadline;
  Buffer.add_char buf ',';
  add_int buf period;
  Buffer.add_char buf ',';
  add_int buf area;
  Buffer.add_char buf ';'

let fragment (task : Model.Task.t) =
  let t = Model.Time.ticks in
  let buf = Buffer.create 32 in
  add_fragment buf ~exec:(t task.Model.Task.exec) ~deadline:(t task.Model.Task.deadline)
    ~period:(t task.Model.Task.period) ~area:task.Model.Task.area;
  Buffer.contents buf

let add_prefix buf ~analyzer ~fpga_area =
  Buffer.add_string buf analyzer.Core.Analyzer.name;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf analyzer.Core.Analyzer.version;
  Buffer.add_char buf '\x00';
  add_int buf fpga_area;
  Buffer.add_char buf '\x00'

let key_prefix ~analyzer ~fpga_area =
  let buf = Buffer.create 32 in
  add_prefix buf ~analyzer ~fpga_area;
  Buffer.contents buf

let key_cols ~analyzer ~fpga_area (cols : Columns.t) =
  let buf = Buffer.create (32 + (24 * cols.Columns.n)) in
  add_prefix buf ~analyzer ~fpga_area;
  Array.iter
    (fun i ->
      add_fragment buf ~exec:cols.Columns.exec.(i) ~deadline:cols.Columns.deadline.(i)
        ~period:cols.Columns.period.(i) ~area:cols.Columns.area.(i))
    (order_cols cols);
  Buffer.contents buf

let key ~analyzer ~fpga_area ts = key_cols ~analyzer ~fpga_area (Columns.of_taskset ts)
