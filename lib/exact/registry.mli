(** The exact oracle and approximate analyzer as registry citizens.

    {!ensure} registers, idempotently and domain-safely:

    - [exact] — {!Oracle.decide} under EDF-NF;
    - [exact-fkf] — the same oracle under EDF-FkF;
    - [approx\[1/10\]] — {!Approx} at the default ε;
    - the [approx\[EPS\]] name parser, so [--analyzer approx\[0.01\]]
      (or a bare [approx]) resolves without pre-registering every ε.

    The exact verdicts canonicalize first ({!Cache.Canonical}) and remap
    indices back exactly like {!Cache.Verdicts} does, so a fresh verdict
    is byte-for-byte the cached one and permutation-invariant.  Every
    front end — [redf analyze], [redf serve], [redf batch], the cache,
    the audit — picks these up through {!Core.Analyzer.of_name} once
    [ensure] has run (the [redf] binary calls it at startup). *)

val exact_nf : Core.Analyzer.t
(** [exact]: ACCEPT is an exact certificate for the synchronous release
    (and for all grid offsets when the offset search completes); REJECT
    carries a concrete counterexample or necessary-condition violation.
    An {!Oracle.conclusion.Inconclusive} decision is reported as REJECT
    with an explanatory note, per the sufficient-test convention. *)

val approx_with : Rat.t -> Core.Analyzer.t
(** The approximate analyzer at a given ε (must be positive). *)

val ensure : unit -> unit
(** Register everything above.  Safe to call repeatedly. *)
