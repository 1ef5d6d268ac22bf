type named_test = string * (fpga_area:int -> Model.Taskset.t -> bool)

let for_edf_nf : named_test list =
  [ ("DP", Dp.accepts); ("GN1", Gn1.accepts); ("GN2", Gn2.accepts) ]

let for_edf_fkf : named_test list = [ ("DP", Dp.accepts); ("GN2", Gn2.accepts) ]
let any tests ~fpga_area ts = List.exists (fun (_, test) -> test ~fpga_area ts) tests

let accepting tests ~fpga_area ts =
  List.filter_map (fun (name, test) -> if test ~fpga_area ts then Some name else None) tests

let edf_nf_any ~fpga_area ts = any for_edf_nf ~fpga_area ts
