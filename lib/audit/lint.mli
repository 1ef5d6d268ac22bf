(** Static lint pass over a taskset.

    Checks the structural invariants the analyzers assume — per-task
    [C_k <= D_k <= T_k] sanity, [0 < A_k <= A(H)], necessary feasibility
    conditions — plus hygiene rules (duplicate names, degenerate
    utilizations, vacuous analyzer preconditions).  Error-level
    diagnostics mean no scheduler can work or every analyzer's verdict
    is vacuous; warnings flag legal but suspicious inputs; infos are
    advisory.

    Rules emitted (stable identifiers):
    - [exec-exceeds-window] (error): [C_k > min(D_k, T_k)]
    - [device-overloaded] (error): [US(Gamma) > A(H)]
    - [exclusion-clique-overload] (error): mutually-exclusive tasks
      demand more than one unit of a serial resource
    - [task-wider-than-device] (error): [A_k > A(H)]; forces every
      analyzer to [reject_all], so any ACCEPT would be vacuous
    - [deadline-exceeds-period] (warning): unconstrained deadline
    - [degenerate-utilization] (warning): [C_k = T_k]; the task
      permanently occupies its columns
    - [duplicate-task-name] (warning)
    - [empty-task-name] (info)
    - [negligible-utilization] (info): [UT_k < 1/1000]
    - [single-task] (info): interference-based tests are vacuous
    - [hyperperiod-exceeds-cap] (info): simulation-backed audits of
      this set will be truncated *)

val lint : ?hyperperiod_cap:Model.Time.t -> fpga_area:int -> Model.Taskset.t -> Diagnostic.t list
(** All diagnostics, most severe first. *)

val clean : ?strict:bool -> Diagnostic.t list -> bool
(** No errors ([strict:false], the default) or neither errors nor
    warnings ([strict:true]). *)
