(** Cross-analyzer consistency audit.

    Runs every analyzer (DP, GN1, GN2 by default) and the EDF-NF /
    EDF-FkF simulator on the same taskset and statically checks the
    soundness contract of the paper:

    - {b unsound-accept}: an analyzer ACCEPT paired with an observed
      deadline miss under a scheduler the test claims to cover is a hard
      error.  DP and GN2 cover both EDF-FkF and EDF-NF (Theorem 3 plus
      Danne's dominance); GN1 covers EDF-NF.  Both the synchronous
      release pattern (over one hyper-period when finite) and a seeded
      sporadic pattern are tried.  Any counterexample is shrunk to a
      minimal taskset and emitted as a regression fixture (CSV);
    - {b work-conserving-violation}: the recorded trace violates the
      occupancy floors of Lemma 1 (EDF-FkF) or Lemma 2 (EDF-NF), via
      {!Trace.Checker.check_work_conserving};
    - {b trace-invariant-violation}: the recorded trace breaks a
      physical invariant ({!Trace.Checker.check});
    - {b approx-unsound}: the approximate demand test
      ({!Exact.Approx}) refutes feasibility while the exact oracle
      conclusively certifies schedulability — a hard error, since an
      approx REJECT claims infeasibility under any scheduler;
    - {b sufficiency-gap} (info): the exact oracle conclusively accepts
      (full offset certificate) while one or more audited sufficient
      tests reject — the expected pessimism of a sufficient test,
      reported so the gap is measurable (EXPERIMENTS.md);
    - {b simulation-skipped} / {b simulation-truncated} (info): the set
      cannot be simulated (a task is wider than the device) or the
      hyper-period exceeds the cap so the certificate is partial.

    Every reference schedule comes from {!Exact.Oracle} — the audit
    performs no ad-hoc simulation of its own. *)

type scheduler = Edf_nf | Edf_fkf

val scheduler_name : scheduler -> string

type analyzer = {
  base : Core.Analyzer.t;  (** the registry analyzer under audit *)
  sound_for : scheduler list;
      (** schedulers under which an ACCEPT claims schedulability *)
}

val analyzer_name : analyzer -> string
val analyzer_decide : analyzer -> fpga_area:int -> Model.Taskset.t -> Core.Verdict.t

val dp : analyzer
val gn1 : analyzer
val gn2 : analyzer

val paper_analyzers : analyzer list
(** [[dp; gn1; gn2]]. *)

val always_accept : name:string -> sound_for:scheduler list -> analyzer
(** A deliberately-unsound stub that accepts every taskset; used to
    prove the auditor catches unsound analyzers (tests, [redf audit
    --inject-unsound]). *)

type finding = {
  severity : Diagnostic.severity;
  rule : string;
  analyzer : string option;
  scheduler : scheduler option;
  detail : string;
  counterexample : Model.Taskset.t option;  (** shrunk witness, for unsound accepts *)
}

val fixture : finding -> string option
(** The shrunk counterexample as a regression-fixture CSV. *)

val to_diagnostic : finding -> Diagnostic.t

type config = {
  fpga_area : int;
  horizon_cap : Model.Time.t;
      (** simulate over [min(hyperperiod, horizon_cap)] *)
  sporadic_seed : int;
      (** seed of the sporadic release pattern audited beside the
          synchronous one *)
  shrink : bool;  (** shrink unsound-accept counterexamples *)
}

val default_config : fpga_area:int -> config
(** Hyper-period cap 10000 units, sporadic seed 97, shrinking on. *)

val shrink_counterexample :
  exhibits:(Model.Taskset.t -> bool) -> Model.Taskset.t -> Model.Taskset.t
(** Greedily removes tasks, then halves execution times, while
    [exhibits] keeps holding; returns the fixpoint.  [exhibits] must
    hold of the input. *)

val audit :
  ?analyzers:analyzer list -> ?jobs:int -> config -> Model.Taskset.t -> finding list
(** All findings, most severe first.  An empty list certifies that on
    this taskset every analyzer verdict is consistent with the observed
    schedules and every trace satisfies the lemma and physical
    invariants.

    [jobs] (default 1 = serial, 0 = one worker per core) fans the
    independent audit units — one per analyzer × covered scheduler ×
    release pattern, plus one lemma/trace check per scheduler — out over
    a domain pool.  Units are pure and reassembled in their serial
    order, so the findings are identical for any worker count. *)
