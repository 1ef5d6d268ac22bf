(* The policy layer: which rules exist, which modules each rule covers,
   and the deny/safe lists the analysis matches against.  Scope is
   decided from the workspace-relative source path recorded in the cmt,
   plus in-source module tags ([@@@redf.det] etc.), so fixture modules
   and future code can opt in without touching this table. *)

type rule = Det_purity | Domain_safety | Exact_arith | Poly_compare

let all = [ Det_purity; Domain_safety; Exact_arith; Poly_compare ]

let name = function
  | Det_purity -> "det-purity"
  | Domain_safety -> "domain-safety"
  | Exact_arith -> "exact-arith"
  | Poly_compare -> "poly-compare"

let of_name s =
  match String.lowercase_ascii s with
  | "det-purity" -> Some Det_purity
  | "domain-safety" -> Some Domain_safety
  | "exact-arith" -> Some Exact_arith
  | "poly-compare" -> Some Poly_compare
  | _ -> None

(* --- module classification --- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* The deterministic world is everything the analyzers, simulator,
   sweep harness and audit execute: all of lib/ except the modules
   whose whole point is wall-clock time (obs timers, the bench
   harness) and socket timeouts (server). *)
let det_excluded = [ "lib/obs/"; "lib/server/"; "lib/bench/" ]

let det_scope file =
  has_prefix ~prefix:"lib/" file
  && not (List.exists (fun p -> has_prefix ~prefix:p file) det_excluded)

(* exact decide paths: the analyzers, the verdict cache keyed on exact
   ticks, and the soundness audit that cross-checks them.  lib/rat and
   lib/bignum stay out: they *are* the exact substrate and provide the
   explicit float-boundary converters (Rat.to_float, pp_approx). *)
let exact_scope file =
  List.exists (fun p -> has_prefix ~prefix:p file) [ "lib/core/"; "lib/cache/"; "lib/audit/" ]

(* every lib module is reachable from a Parallel.Pool work item (audit
   units run analyzers, simulator, trace checks and cache lookups on
   worker domains), so the whole library tree is shared-state scope *)
let shared_scope file = has_prefix ~prefix:"lib/" file

let poly_scope _file = true

(* in-source module tags extend the path-based scopes *)
let tag_of_attribute = function
  | "redf.det" -> Some Det_purity
  | "redf.domain_shared" -> Some Domain_safety
  | "redf.exact" -> Some Exact_arith
  | _ -> None

let in_scope rule ~file ~tags =
  List.mem rule tags
  ||
  match rule with
  | Det_purity -> det_scope file
  | Domain_safety -> shared_scope file
  | Exact_arith -> exact_scope file
  | Poly_compare -> poly_scope file

(* --- det-purity: denied identifiers --- *)

(* normalized full paths (Foo__Bar rewritten to Foo.Bar); matching is
   on the complete dotted path, so a user-defined MyHashtbl.iter is
   not confused with the stdlib one *)
let det_denied_idents =
  [
    ("Stdlib.Hashtbl.iter", "iteration order depends on the hash seed and insertion history");
    ("Stdlib.Hashtbl.fold", "fold order depends on the hash seed and insertion history");
    ("Stdlib.Hashtbl.randomize", "switches hash tables to randomized, run-dependent hashing");
    ("Stdlib.Random.self_init", "seeds the PRNG from the outside world");
    ("Stdlib.Sys.time", "reads the process clock");
    ("Unix.gettimeofday", "reads the wall clock");
    ("Unix.time", "reads the wall clock");
    ("Stdlib.Sys.getenv", "output must not depend on the environment");
    ("Stdlib.Sys.getenv_opt", "output must not depend on the environment");
  ]

(* --- exact-arith: denied identifiers --- *)

let exact_denied_idents =
  [
    ("Stdlib.float_of_string", "parses a rounded binary float; use Rat.of_decimal_string");
    ("Stdlib.float_of_string_opt", "parses a rounded binary float; use Rat.of_decimal_string");
    ("Stdlib.Float.of_string", "parses a rounded binary float; use Rat.of_decimal_string");
    ("Stdlib.Float.of_string_opt", "parses a rounded binary float; use Rat.of_decimal_string");
    ("Stdlib.Float.equal", "float equality is rounding-dependent; compare Rat values");
    ("Stdlib.Float.compare", "float ordering is rounding-dependent; compare Rat values");
  ]

(* --- poly-compare: types with a custom ordering --- *)

(* fully-qualified, normalized constructor paths.  A use site matches
   when its (possibly shortened) path components are a suffix of one of
   these, and — for bare local names — the defining unit agrees. *)
let ordered_types =
  [
    ("Core.Analyzer.t", "contains closures: polymorphic compare raises at runtime");
    ("Core.Verdict.t", "verdicts order by acceptance then checks; use a match or Verdict equality");
    ("Core.Verdict.task_check", "carries exact Rat sides; compare fields monomorphically");
    ("Core.Dbf.result", "verdict-like variant; match on the constructor instead");
    ("Core.Feasibility.violation", "verdict-like variant; match on the constructor instead");
    ("Audit.Diagnostic.t", "diagnostics order by severity via compare_severity");
    ("Audit.Diagnostic.severity", "ordering is compare_severity, not the declaration order guess");
    ("Obs.Snapshot.entry", "entries order by the canonical key sort; compare fields explicitly");
    ("Sim.Engine.outcome", "match on No_miss/Miss instead of structural equality");
    ("Sim.Engine.miss", "compare task_index/at fields monomorphically");
  ]

(* the polymorphic functions whose instantiation we inspect *)
let poly_compare_idents =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
    "Stdlib.List.mem";
    "Stdlib.List.assoc";
    "Stdlib.List.assoc_opt";
    "Stdlib.List.mem_assoc";
    "Stdlib.Array.mem";
    "List.mem";
    "List.assoc";
    "List.assoc_opt";
    "List.mem_assoc";
    "Array.mem";
  ]

(* --- domain-safety: mutable vs safe type heads --- *)

(* a module-level binding whose type has one of these heads is shared
   mutable state *)
let mutable_type_heads =
  [
    "Stdlib.ref";
    "ref";
    "Stdlib.Hashtbl.t";
    "Hashtbl.t";
    "Stdlib.Buffer.t";
    "Buffer.t";
    "Stdlib.Queue.t";
    "Queue.t";
    "Stdlib.Stack.t";
    "Stack.t";
    "array";
    "bytes";
    "Stdlib.Bytes.t";
  ]

(* these wrappers make the state safe to share; their parameters are
   not inspected further *)
let safe_type_heads =
  [
    "Stdlib.Atomic.t";
    "Atomic.t";
    "Stdlib.Mutex.t";
    "Mutex.t";
    "Stdlib.Condition.t";
    "Condition.t";
    "Stdlib.Semaphore.Counting.t";
    "Stdlib.Semaphore.Binary.t";
    "Stdlib.Domain.DLS.key";
    "Domain.DLS.key";
  ]
