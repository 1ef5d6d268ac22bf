(** The exact schedulability oracle.

    Decides periodic tasksets on the area-based device by bounded
    state-space exploration ({!Sim.Engine} over the {!Interval}
    bounds), in three stages:

    + the necessary conditions ({!Core.Feasibility}) refute long-run
      overload without simulating anything;
    + the synchronous release is simulated over its certificate
      horizon — exact for the paper's release model (all first releases
      at 0): a miss is a true counterexample, a miss-free run a
      complete certificate (unless the hyper-period exceeds the cap,
      which is {!conclusion.Inconclusive});
    + every first-release offset assignment on the parameter grid is
      simulated over [\[0, O_max + 2H\]] (Goossens & Meumeu Yomsi's
      interval), upgrading the certificate from "synchronous" to "all
      grid offsets" — or refuting a set the synchronous case misses
      (Section 6's no-critical-instant remark).

    The conclusion is deterministic for any [jobs] (the offset search's
    smallest-miss-index discipline), and {!Registry} wraps [decide] as
    the registered [exact] / [exact-fkf] analyzers.  The audit
    ({!Audit.Consistency}) uses {!simulate} as its only source of
    reference schedules. *)

type pattern =
  | Synchronous  (** all first releases at 0 — the paper's model *)
  | Sporadic of { seed : int; max_delay : Model.Time.t }
      (** seeded sporadic arrival delays; a refutation pattern, never a
          certificate (the delays are sampled, not exhausted) *)

val simulate :
  ?horizon_cap:Model.Time.t ->
  ?record:bool ->
  fpga_area:int ->
  policy:Sim.Policy.t ->
  pattern ->
  Model.Taskset.t ->
  Sim.Engine.result * bool
(** One reference simulation over {!Interval.sync_horizon} (default cap
    10^4 units); the flag reports horizon truncation.  [record] keeps
    the per-segment trace for lemma checking.
    @raise Invalid_argument when a task is wider than the device. *)

type certificate =
  | All_offsets of { combinations : int; grid : Model.Time.t }
      (** no miss for any first-release offset assignment on [grid] —
          exact for offsets restricted to the grid (sub-grid offsets
          are not covered; see {!Interval}) *)
  | Synchronous_only of { reason : string }
      (** the synchronous case is certified exactly, but the offset
          search was skipped ([reason]: combination count or
          hyper-period cap) *)

type refutation =
  | Wider_than_device of { amax : int }
  | Infeasible of Core.Feasibility.violation list
      (** infeasible under every scheduler and release pattern *)
  | Sync_miss of Sim.Engine.miss
  | Offset_miss of { offsets : Model.Time.t list; miss : Sim.Engine.miss }

type conclusion =
  | Schedulable of certificate
  | Unschedulable of refutation
  | Inconclusive of { reason : string }
      (** the hyper-period exceeds the cap: no miss was observed in the
          capped prefix, but nothing certifies the steady state *)

val decide :
  ?grid:Model.Time.t ->
  ?max_combinations:int ->
  ?horizon_cap:Model.Time.t ->
  ?jobs:int ->
  fpga_area:int ->
  policy:Sim.Policy.t ->
  Model.Taskset.t ->
  conclusion
(** [grid] defaults to {!Interval.parameter_grid}; [max_combinations]
    (default 20000) bounds the offset search, [jobs] (default 1 =
    serial, 0 = one per core) fans it over a domain pool with identical
    conclusions for any worker count. *)
