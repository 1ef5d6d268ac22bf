(** The GN2 test — Theorem 3, for EDF-FkF (hence also sound for EDF-NF).

    FPGA generalisation of Baker's BAK2, combining the per-window
    interference analysis with busy-interval (problem-window) extension.
    For every task [tau_k] the test searches a constant
    [lambda >= C_k/T_k]; with [lambda_k = lambda * max(1, T_k/D_k)],
    [Abnd = A(H) - Amax + 1] and the per-task work-rate bound

    {v beta^lambda_k(i) =
         max(C_i/T_i, C_i/T_i (1 - D_i/D_k) + C_i/D_k)   if C_i/T_i <= lambda
         C_i/T_i                                          if C_i/T_i > lambda and lambda >= C_i/D_i
         C_i/T_i + (C_i - lambda D_i)/D_k                 if C_i/T_i > lambda and lambda <  C_i/D_i v}

    the taskset is accepted iff for every [k] some candidate [lambda]
    satisfies

    {v 1)  sum_i A_i min(beta^lambda_k(i), 1 - lambda_k) <  Abnd (1 - lambda_k)
       2)  sum_i A_i min(beta^lambda_k(i), 1) < (Abnd - Amin)(1 - lambda_k) + Amin v}

    Only the discontinuity points of [beta] need be tried
    ([lambda = C_i/T_i], and [C_i/D_i] when [D_i > T_i]), giving the
    paper's O(N^3) complexity.

    Two typos in the published statement are corrected here (see
    DESIGN.md §2): the middle [beta] case prints [C_k/T_k] for [C_i/T_i],
    and condition 2 prints [<=] although only the strict form reproduces
    the paper's own Table 1 decision.

    Per task [k] the candidates in [\[C_k/T_k, min(1, D_k/T_k)\]] are
    walked in ascending order, stopping at the first that satisfies a
    condition; a rejected check reports the candidate whose condition 2
    came closest.  Each candidate is an O(N) pass over int ticks: with
    [lambda = p/q], both condition sums become sums of [A_i m_i / T_i]
    with int [m_i], decided from their floors, and exactly (over
    [lcm(T_i)], in {!Bignum}) only when the floors leave it open, for
    the tie-break, and for the lhs a check prints (in checked ints
    where [lcm(T_i)] and the numerator fit).  The arithmetic runs over
    plain ints where the range check [(N + 2) A M^3 + N M] fits, else
    over {!Bignum} ({!Ticks}).
    The [core.gn2.lambda_evals] counter counts the candidates
    evaluated. *)

val decide : fpga_area:int -> Model.Taskset.t -> Verdict.t
