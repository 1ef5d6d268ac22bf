(** The DP test — Theorem 1.

    Danne & Platzner's utilization bound for EDF-FkF (hence also valid for
    EDF-NF, which dominates it), restated by Guan et al. with the
    integer-area correction: a taskset [Gamma] is schedulable by EDF-FkF on
    a device with [A(H) >= Amax] columns if for every task [tau_k]

    {v US(Gamma) <= (A(H) - Amax + 1) * (1 - UT(tau_k)) + US(tau_k) v}

    The test is derived for periodic tasks with implicit deadlines
    ([D = T]); {!applicable} reports whether a taskset is in its domain,
    and a taskset outside it is rejected on every check with the note
    ["DP assumes implicit deadlines (D = T)"].  {!decide_original}
    evaluates Danne & Platzner's uncorrected bound (real-valued areas,
    [A(H) - Amax]), kept as a baseline.

    Both sides are ratios of int ticks: [US(Gamma)] is one numerator
    over [lcm(T_i)], computed once per taskset, and each check
    compares it with the bound's numerator by cross-multiplying, over
    native ints or, where one would overflow, {!Bignum} ({!Ticks}). *)

val applicable : Model.Taskset.t -> bool
(** All deadlines implicit. *)

val decide : fpga_area:int -> Model.Taskset.t -> Verdict.t
val accepts : fpga_area:int -> Model.Taskset.t -> bool

val decide_original : fpga_area:int -> Model.Taskset.t -> Verdict.t
(** Danne & Platzner's original bound with [A(H) - Amax] (no [+1]). *)

val accepts_original : fpga_area:int -> Model.Taskset.t -> bool
