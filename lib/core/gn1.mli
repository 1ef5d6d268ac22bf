(** The GN1 test — Theorem 2, for EDF-NF.

    FPGA generalisation of Bertogna/Cirinei/Lipari's BCL test, built on
    the interval-alpha-work-conserving property of EDF-NF (Lemma 2): while
    a job of [tau_k] waits, the occupied area is at least
    [A(H) - (A_k - 1)].  For each task [tau_k] the interference any other
    task [tau_i] can contribute within one scheduling window of [tau_k] is
    bounded by

    {v beta_i = (N_i C_i + min(C_i, max(D_k - N_i T_i, 0))) / D_i
       N_i    = max(0, floor((D_k - D_i)/T_i) + 1) v}

    (the paper's Table 3 example divides by [D_i] too, where BCL divides
    by [D_k]; DESIGN.md section 2), and the taskset is accepted iff for
    every [k]

    {v sum_{i<>k} A_i min(beta_i, 1 - C_k/D_k)
         <  (A(H) - A_k + 1)(1 - C_k/D_k) v}

    The bound constant [(A(H) - A_k + 1)] is the one Lemma 3 derives and
    the paper's Section-6 worked examples use.  The comparison is strict
    even though Lemma 3 states it non-strictly: random testing against
    exact-hyperperiod simulation shows deadline misses exactly at the
    equality boundary, so the non-strict reading is unsound (DESIGN.md
    §2, test_regressions.ml).  All of the paper's table decisions are
    unaffected.  The theorem as printed instead uses [(A(H) - A_k)]; that
    (more pessimistic) variant is available as {!decide_printed}.

    Every term is a ratio of int ticks over [D_i] or [D_k], so check
    [k] accumulates its lhs as one numerator over [lcm(D_1..D_N)]
    (computed once per taskset), compares numerators, and normalizes
    the printed lhs once.  The arithmetic runs over plain ints where
    the range check [M (M + A + 1) + max(A, sum_i A_i) L] fits, else
    over {!Bignum} ({!Ticks}). *)

val decide : fpga_area:int -> Model.Taskset.t -> Verdict.t

val decide_printed : fpga_area:int -> Model.Taskset.t -> Verdict.t
(** The variant exactly as printed in Theorem 2. *)
