type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;
  task_index : int option;
  message : string;
}

let make severity ?task_index ~rule message = { severity; rule; task_index; message }
let error ?task_index ~rule message = make Error ?task_index ~rule message
let warning ?task_index ~rule message = make Warning ?task_index ~rule message
let info ?task_index ~rule message = make Info ?task_index ~rule message

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

(* monomorphic: severities order by rank, never by constructor layout *)
let equal_severity a b = Int.equal (severity_rank a) (severity_rank b)

let count sev ds = List.length (List.filter (fun d -> equal_severity d.severity sev) ds)
let has_errors ds = List.exists (fun d -> equal_severity d.severity Error) ds
let has_warnings ds = List.exists (fun d -> equal_severity d.severity Warning) ds

let by_severity ds =
  List.stable_sort (fun a b -> compare_severity a.severity b.severity) ds

let pp fmt d =
  match d.task_index with
  | Some i -> Format.fprintf fmt "%s[%s] task %d: %s" (severity_name d.severity) d.rule (i + 1) d.message
  | None -> Format.fprintf fmt "%s[%s]: %s" (severity_name d.severity) d.rule d.message

let pp_list fmt ds = List.iter (fun d -> Format.fprintf fmt "%a@," pp d) ds
