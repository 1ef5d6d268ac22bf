(** Measurement core of [redf bench-core]: per-decide analyzer cost
    across taskset sizes and call modes, with comparison against the
    committed baseline in [results/BENCH_core.json].

    The matrix: DP/GN1/GN2/approx at N in {8, 64, 256} in single mode;
    DP/GN1/GN2 additionally in batch mode ({!Core.Analyzer.t.decide_all}
    over 16 distinct tasksets) at N in {8, 64}; the exact
    oracle on crafted tasksets at N in {2, 3}.  Workloads derive from
    fixed seeds, so successive runs measure the same decides. *)

val collect :
  ?budget_ms:int ->
  ?only:(string * int * string) list ->
  ?progress:(Env.core_row -> unit) ->
  unit ->
  Env.core_row list
(** Measure every row (or, with [only], just the named
    [(analyzer, n, mode)] rows — the regression-retry path).
    [budget_ms] bounds the whole section's wall clock: a row still
    running when it expires is cut short and flagged
    {!Env.core_row.truncated}; rows not yet started are recorded with
    [ns_per_decide = 0] and the same flag.  [progress] fires after
    each row. *)

(** {2 Comparison} *)

val parse_tolerance : string -> (float, string) result
(** Accepts ["1.5x"] or ["1.5"]; must be at least 1.0. *)

val abs_slack_ns : int
(** A row only counts as regressed if, besides exceeding the ratio
    tolerance, it slowed down by at least this many nanoseconds —
    micro-rows jitter too much between machines for a pure ratio
    gate. *)

type verdict =
  | Ok_row of float  (** ratio current/baseline, within tolerance *)
  | Regressed of float  (** ratio beyond tolerance and absolute slack *)
  | New_row  (** no matching (analyzer, n, mode) row in the baseline *)
  | Skipped_truncated  (** either side truncated (or zero) — not comparable *)

type compared = { row : Env.core_row; baseline_ns : int option; verdict : verdict }

val compare_rows :
  tolerance:float -> baseline:Env.core_row list -> Env.core_row list -> compared list
(** Match current rows to baseline rows by (analyzer, n, mode). *)

val regressions : compared list -> compared list

val pretty_row : Env.core_row -> string
val pretty_compared : compared -> string
