(** Tunable approximate analysis: an area-weighted demand-bound test
    with error parameter ε, after Albers & Slomka's approximate
    feasibility analysis (see PAPERS.md).

    The device supplies at most [A(H)] column-units per time unit, so
    for the synchronous release the area-weighted processor-demand
    criterion

    {v h(t) = sum_i dbf_i(t) * C_i * A_i  <=  A(H) * t v}

    is {e necessary} for schedulability under every scheduler (dbf_i is
    the uniprocessor demand-bound function of {!Core.Dbf}, weighted by
    the task's column count).  This module evaluates [h] {e exactly}
    (integer column-ticks) at a sparse, ε-controlled set of test
    points: every task's first absolute deadline, then a geometric
    sequence with ratio [1 + ε] up to the horizon.

    The ε-error contract (DESIGN.md, "The ε contract"):

    - {b REJECT is exactly sound}: a violated point is a true violation
      of the necessary criterion, so REJECT certifies infeasibility —
      under {e any} scheduler and release pattern — independent of ε.
      Equivalently the oracle can never accept what approx rejects.
    - {b ACCEPT carries a certified error band}: consecutive test
      points are at most a factor [1 + ε] (or one tick) apart and [h]
      only changes at integer deadlines, so an accepted taskset
      satisfies [h(t) <= (1 + ε) * A(H) * t] for every [t] up to the
      horizon.  Smaller ε means more points and a tighter band:
      the point count grows as [O(n + log_{1+ε}(horizon))].

    Like {!Core.Analyzer.nec}, ACCEPT is an upper bound on true
    schedulability, not a sufficient certificate. *)

val default_eps : Rat.t
(** [1/10] — the registered [approx\[1/10\]] instance's ε. *)

val area_demand : Model.Taskset.t -> at:Model.Time.t -> Bignum.t
(** [h(at)] in column-ticks, exactly. *)

val area_demand_cols : Model.Taskset.Columns.t -> at_ticks:int -> int
(** {!area_demand} over the columnar views in plain ints, used by the
    point scans; wherever [h(at)] fits in an [int],
    [Bignum.of_int (area_demand_cols (Columns.of_taskset ts)
    ~at_ticks:(Time.ticks at)) = area_demand ts ~at] (pinned by
    test_columns.ml).  A scan runs it only after one range check at
    its horizon, and runs {!area_demand} where that check fails. *)

type outcome =
  | Accepted of { horizon : Model.Time.t; points : int; partial : bool }
      (** no violation at any test point; [partial] flags a horizon
          truncated at the cap (the band then covers the prefix only) *)
  | Refuted_at of { at : Model.Time.t; demand : Bignum.t; supply : Bignum.t }
      (** [h(at) = demand > supply = A(H) * at] column-ticks, compared
          exactly (in plain ints where both fit at the horizon, in
          {!Bignum} otherwise): infeasible under any scheduler; the
          earliest violated test point *)
  | Refuted_overload of { us : Rat.t }
      (** [US > A(H)]: long-run overload, infeasible *)

val analyze :
  ?eps:Rat.t ->
  ?horizon_cap:Model.Time.t ->
  fpga_area:int ->
  Model.Taskset.t ->
  outcome
(** [eps] defaults to {!default_eps} (must be positive), [horizon_cap]
    to 10^4 time units.  The horizon is the least of [H + D_max] (when
    the hyper-period is finite), the utilization-slack bound
    [sum A_i C_i (T_i - D_i) / T_i / (A(H) - US)] (when [US < A(H)]),
    and the cap. *)

val verdict : eps:Rat.t -> name:string -> fpga_area:int -> Model.Taskset.t -> Core.Verdict.t
(** {!analyze} as a registry verdict: every per-task check carries the
    same taskset-level [lhs = max h(t)/t] over the checked points and
    [rhs = A(H)], so verdicts are permutation-invariant and cache
    byte-for-byte ({!Cache.Verdicts}). *)
