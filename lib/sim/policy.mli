(** Scheduling policies.

    A policy is an ordering of the active-job queue plus a fit rule that
    turns the ordered queue into a running set:

    - {b EDF-FkF} (Definition 1): deadline order, take the longest prefix
      that fits — a job that does not fit blocks everything behind it.
    - {b EDF-NF} (Definition 2): deadline order, greedily take every job
      that fits, skipping (not blocking on) jobs that do not.
    - {b EDF-US} (Section 7 future work, after Srinivasan & Baruah): give
      top priority to high-utilization tasks, EDF order among the rest;
      the paper suggests measuring "high utilization" by system rather
      than time utilization on an FPGA, so both measures are provided. *)

type fit_rule = Fkf | Nf

type order =
  | Edf  (** Definitions 1 and 2 *)
  | Us_first of { threshold : Rat.t; measure : [ `Time | `System ] }
      (** Tasks whose utilization exceeds [threshold] come first (among
          themselves in task-index order), remaining jobs in EDF order.
          [`Time] compares [C/T]; [`System] compares [C*A/(T*A(H))]. *)

type t = { order : order; rule : fit_rule }

val edf_fkf : t
val edf_nf : t

val edf_us : threshold:Rat.t -> measure:[ `Time | `System ] -> rule:fit_rule -> t

val priority : t -> fpga_area:int -> Model.Task.t array -> Job.t -> Job.t -> int
(** [priority t ~fpga_area tasks] is the policy's priority order on the
    active jobs of [tasks] (indexed by [Job.task_index]): negative when
    the first job goes first.  It is a total order, and a job's place in
    it is fixed for the job's lifetime, so a queue kept in this order
    never needs re-sorting.  EDF-US heaviness is decided once per task
    when [priority] is applied to [tasks]. *)

val pp : Format.formatter -> t -> unit
