(** Event-driven simulation of global EDF scheduling on a 1-D PRTR FPGA.

    The paper uses simulation (all tasks released at time 0) as a coarse
    upper bound on schedulability, since exact schedulability would require
    exhausting all release offsets (Section 6).  This engine simulates any
    {!Policy.t} under two placement regimes:

    - [Migrating] — the paper's model (assumption 4): unrestricted
      migration and zero-cost defragmentation, so a job fits iff its area
      is at most the total free area.
    - [Contiguous strategy] — the future-work regime: a job needs a
      contiguous free block chosen by the given allocation strategy, keeps
      its region while it runs, and loses it on preemption.

    Time advances from event to event (releases, absolute deadlines,
    completions); between events the running set is constant.  All
    arithmetic is exact integer ticks. *)

type placement_mode = Migrating | Contiguous of Fpga.Device.strategy

type release_pattern =
  | Synchronous  (** all first releases at time 0 (the paper's setup) *)
  | Offsets of Model.Time.t list  (** one first-release offset per task *)
  | Sporadic of { seed : int; max_delay : Model.Time.t }
      (** sporadic arrivals: each release is delayed beyond the minimum
          inter-arrival time by an independent uniform amount in
          [\[0, max_delay\]] (deterministic per seed).  The analytic tests
          cover sporadic tasks; this pattern lets the test suite check
          that claim against the simulator. *)

type config = {
  fpga_area : int;
  policy : Policy.t;
  horizon : Model.Time.t;  (** simulate the interval [\[0, horizon\]] *)
  release : release_pattern;
  placement : placement_mode;
  record_trace : bool;  (** keep per-segment history (memory-heavy) *)
}

val default_config : fpga_area:int -> policy:Policy.t -> config
(** Synchronous release, migrating placement, horizon 2000 time units, no
    trace recording. *)

type placed = { job : Job.t; region : Fpga.Device.region option }
(** A running job; [region] is [None] in migrating mode. *)

type segment = {
  t0 : Model.Time.t;
  t1 : Model.Time.t;
  running : placed list;
  waiting : Job.t list;  (** active jobs not selected to run *)
}

type miss = { job_id : int; task_index : int; at : Model.Time.t }

type outcome = No_miss | Miss of miss

type stats = {
  iterations : int;
  events_popped : int;  (** release / deadline-check events processed *)
  jobs_released : int;
  jobs_completed : int;
  elapsed_ticks : int;
      (** time actually simulated: the full horizon, or less when the
          run stopped early at a deadline miss — the denominator for
          any per-time average over this result *)
  busy_column_ticks : int;
      (** integral of occupied area over time, in column-ticks: at most
          [A(H) * elapsed_ticks], and exact while that fits an int.  A
          device wider than [max_int / elapsed_ticks] columns (about
          4.6e12 over a 1,000-unit run) can wrap it, and
          {!average_busy_area} with it; no analysis reads it *)
  contended_ticks : int;  (** total time with a non-empty waiting queue *)
  min_busy_when_contended : int option;
      (** minimum occupied area over contended time; [None] if never contended *)
  nf_alpha_respected : bool;
      (** every waiting job [Jk] always saw occupied area >= A(H)-(Ak-1) (Lemma 2) *)
  fkf_alpha_respected : bool;
      (** occupied area >= A(H)-(Amax-1) whenever contended (Lemma 1) *)
  preemptions : int;  (** a running job was descheduled before finishing *)
  placements_made : int;  (** contiguous mode: regions allocated *)
}

type result = { outcome : outcome; stats : stats; segments : segment list }

val run : config -> Model.Taskset.t -> result
(** @raise Invalid_argument when some task is wider than the device, or
    when [Offsets] does not list exactly one offset per task. *)

val schedulable : config -> Model.Taskset.t -> bool
(** [run] observed no deadline miss within the horizon. *)

val average_busy_area : result -> float
(** Mean occupied columns over the time actually simulated
    ([stats.elapsed_ticks]), so a run that stopped early at a deadline
    miss is averaged over its own window, not the configured horizon. *)
