(** Exhaustive release-offset search.

    Section 6 notes that "it is not possible to determine exact
    schedulability without exhaustively simulating all possible task
    release offsets" — on a multiprocessor-like resource there is no
    critical instant, so the synchronous simulation is only an upper
    bound.  For small tasksets this module does the exhaustive search on
    a discretised offset grid: it enumerates every combination of first
    release offsets [o_i] in [\[0, T_i)] on the grid, simulates each to
    [max offset + hyper-period], and reports the first offset assignment
    that produces a deadline miss.

    On a grid, this is exact for workloads whose parameters live on the
    same grid (the schedule evolution between grid points is linear); it
    is exponential in the task count and meant for validation and small
    case studies, not for the synthetic experiment sizes. *)

type outcome =
  | Schedulable_all_offsets of { combinations : int }
      (** no offset assignment on the grid produced a miss *)
  | Miss_with_offsets of { offsets : Model.Time.t list; miss : Engine.miss }
  | Too_many_combinations of { combinations : int }
      (** the grid would require more than [max_combinations] runs *)
  | Hyperperiod_too_large

val search :
  ?grid:Model.Time.t ->
  ?max_combinations:int ->
  ?jobs:int ->
  fpga_area:int ->
  policy:Policy.t ->
  Model.Taskset.t ->
  outcome
(** [search ~fpga_area ~policy ts] enumerates offsets on [grid] (default
    one time unit) with at most [max_combinations] (default 20000)
    simulations.  Tasksets whose hyper-period exceeds the
    {!Model.Taskset.hyperperiod} cap are rejected as
    [Hyperperiod_too_large].

    [jobs] (default 1 = serial, 0 = one worker per core) explores the
    combination space on a domain pool with a shared atomic best-so-far
    that prunes branches above the smallest miss index found.  The
    reported miss is the lexicographically first one — the same
    assignment the serial enumeration finds — for any worker count. *)
