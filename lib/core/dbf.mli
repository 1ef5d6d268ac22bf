(** The processor-demand criterion, weighted by area: the one demand
    test behind the partitioned baseline's [Demand_bound] mode and
    [approx\[EPS\]] ([Exact.Approx]).

    The device supplies at most [A(H)] column-units per time unit, so
    for the synchronous release

    {v h(t) = sum_i dbf_i(t) * C_i * A_i  <=  A(H) * t   for every t > 0
       dbf_i(t) = max(0, floor((t - D_i)/T_i) + 1) v}

    is necessary for schedulability under every scheduler.  With one
    column and every [A_i = 1] it is Baruah/Rosier/Howell's exact
    test of uniprocessor EDF: inside one partition of Danne &
    Platzner's partitioned scheme (Section 7 / [10]) execution is
    serialized, so that is what decides a partition.

    Only points up to a horizon need checking: the least of [H + D_max]
    and the slack bound [S / (A(H) - US)] with
    [S = sum_i A_i C_i max(0, T_i - D_i) / T_i] (when [US < A(H)]; it
    holds since [h(t) <= US * t + S]), each where it is at most the
    cap.  Where neither is, the cap is the horizon and the answer
    covers that prefix only.

    Every value is exact: [h] runs in plain ints where one range check
    at the horizon shows that [h] and [A(H) * t] fit an int there,
    which covers every point below it since both grow with [t], and in
    {!Bignum} otherwise. *)

val demand : Model.Taskset.Columns.t -> at_ticks:int -> Bignum.t
(** [h(at)] in column-ticks, exactly. *)

val demand_native : Model.Taskset.Columns.t -> at_ticks:int -> int
(** {!demand} in plain ints: equal to it wherever [h(at)] fits an
    [int] (pinned by test_columns.ml).  {!test} runs it only behind
    its range check. *)

type points =
  | Every_deadline  (** every absolute deadline: the exact test *)
  | Geometric of Rat.t
      (** every task's first absolute deadline, then a geometric tail
          with ratio [1 + eps] up to the horizon.  Consecutive points
          are at most a factor [1 + eps] or one tick apart and [h]
          only steps at deadlines, so passing them certifies
          [h(t) <= (1 + eps) * A(H) * t] for every [t] up to the
          horizon, at [O(n + log_{1+eps}(horizon))] points.  [eps]
          must be positive. *)

type result =
  | Accepted of { horizon : Model.Time.t; points : int; partial : bool }
      (** no violation at any of the [points] test points up to
          [horizon]; [partial] flags a horizon cut at the cap, which
          certifies the prefix only *)
  | Refuted_at of { at : Model.Time.t; demand : Bignum.t; supply : Bignum.t }
      (** [h(at) = demand > supply = A(H) * at] column-ticks at the
          earliest violated test point: infeasible under any
          scheduler *)
  | Refuted_overload of { us : Rat.t }  (** [US > A(H)]: long-run overload, infeasible *)

val test : ?horizon_cap:Model.Time.t -> points -> fpga_area:int -> Model.Taskset.t -> result
(** The criterion on [A(H) = fpga_area] at [points] up to the horizon;
    [horizon_cap] defaults to 10^4 time units. *)

val peak : points -> fpga_area:int -> horizon:Model.Time.t -> Model.Taskset.t -> Rat.t
(** The largest [h(t)/t] over the test points up to [horizon] (an
    {!Accepted} horizon of {!test}); 0 where there are none. *)

val schedulable : Model.Taskset.t -> bool
(** Exact EDF schedulability on one processor: {!test} at
    [Every_deadline] with one column and every [A_i = 1] accepts, and
    its horizon is not partial. *)
