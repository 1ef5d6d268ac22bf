(** The verdict cache: {!Canonical} keys over an {!Lru} of verdicts,
    each stored in its owner's form.

    A cached answer must be byte-for-byte the answer a fresh
    computation would give.  Verdicts carry per-task checks in taskset
    order, and the cache is deliberately blind to task order — so the
    cache stores the verdict of the {e canonical} taskset (tasks
    sorted, names dropped) and, per request, maps the check indices
    back through the request's sort permutation.  Every per-task
    quantity in a verdict (lhs, rhs, note) depends only on that task's
    parameters and the multiset of the others, so the remapped verdict
    equals the directly computed one exactly — a property
    [test_cache.ml] asserts against randomized tasksets.

    Safe to share across worker domains ({!Lru}'s locking).  The store
    is a {!Sharded} LRU: [shards] defaults to [1] (a plain LRU, exact
    single-threaded hit/miss accounting) and the serve loop passes more
    shards so worker domains stop serializing on one cache mutex —
    sharding changes lock granularity only, never answers.

    Two stored forms, one dedup/batch-decide path: a {!t} ([create])
    holds each canonical verdict as a {!Core.Verdict.t}, for callers
    that want verdicts; a {!rendered} store ([create_rendered]) holds
    it as {!Core.Verdict.Rendered.t}, the response fragments both
    daemons ([redf serve] and [redf admit]) print, so a hit prints no
    rational and a warm entry holds bytes instead of [Rat] trees.  A
    miss converts the fresh verdict once, on insert. *)

type 'v store
(** A cache whose entries have the form ['v]. *)

type t = Core.Verdict.t store
type rendered = Core.Verdict.Rendered.t store

val create : ?metrics_prefix:string -> ?shards:int -> capacity:int -> unit -> t
(** See {!Sharded.create}; [metrics_prefix] defaults to ["cache"],
    [shards] to [1]. *)

val create_rendered : ?metrics_prefix:string -> ?shards:int -> capacity:int -> unit -> rendered
(** {!create}, for the rendered form. *)

val decide_columns :
  'v store -> analyzer:Core.Analyzer.t -> fpga_area:int -> Model.Taskset.Columns.t array -> 'v array
(** The entry of each taskset, remapped to its task order: each taskset
    is sorted once, for its key and its remap; every key is probed
    once; the {e distinct} missing canonical tasksets are decided in a
    single {!Core.Analyzer.t.decide_all} call (so a taskset occurring
    twice in the batch — under any task order or names — is computed
    once). *)

val decide : t -> analyzer:Core.Analyzer.t -> fpga_area:int -> Model.Taskset.t -> Core.Verdict.t
(** [analyzer.decide ~fpga_area ts], served from the cache when an
    equivalent request (any task order / names) was already answered
    for this analyzer name+version and device area. *)

val decide_all :
  t ->
  analyzer:Core.Analyzer.t ->
  fpga_area:int ->
  Model.Taskset.t array ->
  Core.Verdict.t array
(** {!decide} over a batch, element-for-element byte-identical to
    mapping it: {!decide_columns} on the columnar views. *)

val decide_canonical :
  'v store ->
  analyzer:Core.Analyzer.t ->
  fpga_area:int ->
  key:string ->
  canonical:Model.Taskset.t ->
  order:int array ->
  'v
(** The entry of one taskset for callers that already hold its
    canonical form — e.g. the admission daemon, whose {!Delta}
    maintains [key], [canonical] and [order] incrementally across
    mutations.  The caller promises the three are consistent
    ({!Canonical.key} / {!Canonical.apply} / {!Canonical.order} of some
    original taskset); given that, the result is byte-identical to
    {!decide_columns} on that original.  A hit probes once and remaps;
    [canonical] is decided only on a miss. *)

val stats : _ store -> Lru.stats
(** Hit/miss/eviction totals summed across shards. *)

val shards : _ store -> int
(** Number of shards backing the store. *)
