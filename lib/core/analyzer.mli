(** First-class schedulability analyzers and their registry.

    Everything that consumes an analyzer — [redf analyze], the
    acceptance-ratio sweeps, the soundness audit, the analysis server —
    routes through this one type instead of threading bare
    [fpga_area -> taskset -> Verdict.t] functions around, so a new test
    is added in exactly one place and every front end (and the verdict
    cache, which keys on [name]/[version]) picks it up.

    [version] identifies the decision procedure, not the code revision:
    it must be bumped whenever the analyzer could return a different
    verdict for some input (e.g. a corrected bound), because cached
    verdicts are shared across processes lifetimes keyed by it. *)

type t = {
  name : string;  (** stable identifier, also the verdict's [test_name] *)
  cite : string;  (** where the test comes from (paper, theorem) *)
  version : string;  (** decision-procedure version; part of cache keys *)
  decide : fpga_area:int -> Model.Taskset.t -> Verdict.t;
  decide_all : fpga_area:int -> Model.Taskset.t array -> Verdict.t array;
      (** Batch entry point, the preferred way to decide many tasksets:
          one verdict per taskset, in order, with element [i]
          byte-identical to [decide ~fpga_area tss.(i)] (QCheck-pinned
          in test_columns.ml).  {!make} maps [decide]; a wrapper may
          replace it (to trace a batch, say), but the byte-identity
          contract means a differing batch path is a [version] bump,
          exactly like a differing [decide]. *)
}

val make :
  name:string ->
  cite:string ->
  version:string ->
  (fpga_area:int -> Model.Taskset.t -> Verdict.t) ->
  t
(** The only way third-party code should build an analyzer: [decide_all]
    maps the single-taskset [decide], so registrants get the batch API
    for free and stay source-compatible if the record grows again. *)

val dp : t
(** Theorem 1 (Danne & Platzner's bound, integer-area corrected). *)

val dp_original : t
(** Danne & Platzner's uncorrected bound, kept as a baseline. *)

val gn1 : t
(** Theorem 2 for EDF-NF (strict-inequality reading, see DESIGN.md). *)

val gn1_printed : t
(** Theorem 2 exactly as printed ([A(H) - A_k] constant). *)

val gn2 : t
(** Theorem 3 for EDF-FkF (typo-corrected, see DESIGN.md). *)

val nec : t
(** The necessary feasibility conditions ({!Feasibility}): ACCEPT means
    "not provably infeasible" — an upper bound on true schedulability,
    not a sufficient test.  On REJECT, a task's check fails with a note
    for each violation it takes part in (its own [C > min(D,T)], an
    overloaded mutual-exclusion clique it belongs to, the device-wide
    [US > A(H)]); notes never name task positions, so a permuted
    taskset gets the permuted verdict.  Version ["2"]. *)

val defaults : t list
(** [[dp; gn1; gn2]] — the paper's three sufficient tests. *)

val all : unit -> t list
(** Every known analyzer: the builtins above ([defaults] first), then
    whatever higher layers have {!register}ed so far (e.g. the exact
    oracle and the approximate demand test from [lib/exact], which core
    cannot depend on). *)

val register : t -> unit
(** Append an analyzer to the registry.  Idempotent per (case-folded)
    [name]: a name that is already known — builtin or registered — is
    kept, not replaced, so registration hooks can run repeatedly.
    Domain-safe. *)

val register_parser :
  syntax:string -> (string -> (t, string) result option) -> unit
(** Register a resolver for parameterized analyzer names that cannot be
    enumerated (e.g. ["approx[EPS]"]).  The parser receives the
    trimmed, lower-cased name and returns [None] when the name is not
    its shape, [Some (Ok a)] on success, and [Some (Error msg)] for a
    malformed parameter (e.g. a non-positive ε).  [syntax] is the
    human-readable form listed by {!known_names}; registration is
    idempotent per [syntax]. *)

val known_names : unit -> string list
(** Every name {!of_name} accepts: registry entries, then parser
    syntaxes — the single source for [--analyzer] help and errors. *)

val of_name : string -> (t, string) result
(** Case-insensitive lookup by [name], falling through to the
    registered parsers for parameterized names; the error lists
    {!known_names}. *)

val of_names : string -> (t list, string) result
(** Comma-separated list of names ("dp,gn2"); empty input is an error. *)

val accepts : t -> fpga_area:int -> Model.Taskset.t -> bool
