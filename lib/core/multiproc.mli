(** Multiprocessor specialisations.

    Section 1 observes that global scheduling on [m] identical processors
    is the special case of 1-D FPGA scheduling where every task has width
    1 and [A(H) = m]; under that reduction EDF-FkF and EDF-NF coincide
    with global EDF, and DP specialises to Goossens/Funk/Baruah's GFB
    bound.  GN1 keeps Bertogna/Cirinei/Lipari's BCL bound and workload,
    but divides task [i]'s workload in task [k]'s window by [D_i] where
    BCL divides by [D_k] (the paper's Table 3 example does the same), so
    it is BCL only when all deadlines are equal (DESIGN.md section 2).
    GN2 follows Baker's BAK2.  This module exposes these tests through
    the reduction (reusing the FPGA implementations) and, for GFB, as the
    direct textbook formula.  The test suite checks GFB against DP and
    [bcl]'s left-hand sides against a textbook BCL. *)

val width_one : Model.Taskset.t -> bool
(** All task areas equal 1. *)

val gfb_direct : m:int -> Model.Taskset.t -> bool
(** GFB: [UT(Gamma) <= m (1 - umax) + umax] with [umax = max C_i/T_i].
    Implicit deadlines assumed (deadlines are ignored: [C/T] is used).
    @raise Invalid_argument when the taskset is not width-1. *)

val gfb : m:int -> Model.Taskset.t -> Verdict.t
(** DP under the width-1 reduction. *)

val bcl : m:int -> Model.Taskset.t -> Verdict.t
(** GN1 under the width-1 reduction: BCL's verdict whenever all
    deadlines are equal. *)

val bak2 : m:int -> Model.Taskset.t -> Verdict.t
(** GN2 under the width-1 reduction. *)
