(** Combined tests.

    Section 6 concludes that no single bound dominates: "different
    schedulability bounds should be applied together, i.e., determine
    that a taskset is unschedulable only if all tests fail."  These
    combinators implement that advice for each scheduling algorithm. *)

type named_test = string * (fpga_area:int -> Model.Taskset.t -> bool)

val for_edf_nf : named_test list
(** DP, GN1 and GN2 — all three are sound for EDF-NF. *)

val for_edf_fkf : named_test list
(** DP and GN2 — GN1 relies on the EDF-NF skipping rule and is not
    applicable to EDF-FkF. *)

val any : named_test list -> fpga_area:int -> Model.Taskset.t -> bool
(** Accept iff at least one test accepts. *)

val accepting : named_test list -> fpga_area:int -> Model.Taskset.t -> string list
(** Names of the tests that accept. *)

val edf_nf_any : fpga_area:int -> Model.Taskset.t -> bool
