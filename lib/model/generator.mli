(** Synthetic taskset generation (Section 6 of the paper).

    The paper evaluates its tests on randomly generated tasksets: FPGA area
    100, task areas uniform on [1,100], periods uniform on (5,20), implicit
    deadlines, and execution time a random fraction of the period.  Figures
    3 and 4 plot acceptance ratio against total system utilization, so the
    harness needs tasksets conditioned on a target [US]; we follow the
    standard UUniFast-style approach of scaling per-task time utilizations
    and redrawing when the scaling violates the profile's bounds.

    Periods are drawn on a configurable tick grid so tasksets remain exact
    fixed-point values; execution times are rounded to the nearest tick. *)

type profile = {
  n : int;  (** number of tasks *)
  fpga_area : int;  (** [A(H)]; task areas are clamped to it *)
  area_lo : int;
  area_hi : int;  (** task areas uniform on [area_lo, area_hi] *)
  util_lo : float;
  util_hi : float;  (** per-task time utilization range (exclusive ends) *)
  period_lo : float;
  period_hi : float;  (** periods uniform on (period_lo, period_hi) *)
  period_grid : int;  (** periods are multiples of this many ticks *)
}

val unconstrained : n:int -> profile
(** Figure 3 profile: [A(H)=100], areas on [1,100], utilization (0,1),
    periods (5,20). *)

val spatially_heavy_temporally_light : n:int -> profile
(** Figure 4(a): areas on [60,100], utilization (0,0.3). *)

val spatially_light_temporally_heavy : n:int -> profile
(** Figure 4(b): areas on [1,20], utilization (0.6,1) — narrow tasks with
    high time demand.  The natural system utilization of a 10-task set
    then spans roughly 40-125, covering the whole region where the tests
    and the simulation upper bound diverge. *)

val validate : profile -> (unit, string) result

val draw : Rng.t -> profile -> Taskset.t
(** Unconditioned draw: utilizations sampled directly from the profile
    range.  @raise Invalid_argument on an invalid profile. *)

val draw_with_target_us : ?max_attempts:int -> Rng.t -> profile -> target_us:float -> Taskset.t option
(** Draw a taskset whose total system utilization is approximately
    [target_us] (exact up to execution-time tick rounding): areas and
    periods are drawn from the profile, raw utilizations are drawn and
    rescaled so that [sum u_i * A_i = target_us].  Returns [None] when no
    draw satisfying the per-task utilization bounds is found within
    [max_attempts] (default 200) — i.e. the target is unreachable for this
    profile. *)

val max_reachable_us : profile -> float
(** Upper bound on the system utilization this profile can produce
    ([n * util_hi * area_hi']). *)
