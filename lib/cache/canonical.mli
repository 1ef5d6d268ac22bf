(** Canonical form of an analysis request, for cache keying.

    Two requests must share a cache entry exactly when no analyzer can
    tell them apart: task order is irrelevant (every test quantifies
    over the set), and so are task names (no test reads them).  The
    canonical form therefore sorts the tasks by their parameters and
    drops the names; the key then binds the device area and the
    analyzer's identity/version, so a corrected bound can never serve a
    verdict computed by its predecessor.

    Keys are the full canonical encoding, not a digest: equality of
    keys is equality of requests, so a cache hit can never return the
    verdict of a colliding taskset. *)

val order_cols : Model.Taskset.Columns.t -> int array
(** {!order} over the columnar views — the batch paths derive keys
    without rebuilding task records. *)

val order : Model.Taskset.t -> int array
(** The stable permutation that sorts the tasks by
    [(C, D, T, A)] (tick-exact): [order.(p)] is the original index of
    the task at canonical position [p].  Ties keep their original
    relative order, which makes the permutation — and everything
    derived from it — deterministic. *)

val apply : int array -> Model.Taskset.t -> Model.Taskset.t
(** [apply (order ts) ts] is the canonical taskset: tasks sorted and
    renamed to [""] so a cached computation is structurally independent
    of the requester's spelling. *)

val key : analyzer:Core.Analyzer.t -> fpga_area:int -> Model.Taskset.t -> string
(** The canonical cache key for [(A(H), tasks, analyzer, version)]. *)

val key_cols : analyzer:Core.Analyzer.t -> fpga_area:int -> Model.Taskset.Columns.t -> string
(** {!key} from the columnar views; byte-identical to [key] on the
    equivalent taskset. *)

val key_of_order :
  analyzer:Core.Analyzer.t -> fpga_area:int -> Model.Taskset.Columns.t -> int array -> string
(** [key_of_order ~analyzer ~fpga_area cols (order_cols cols)] is
    {!key_cols}, for a caller that needs the order too: each taskset is
    sorted once. *)

val apply_cols : int array -> Model.Taskset.Columns.t -> Model.Taskset.t
(** {!apply} from the columnar views. *)

val compare_tasks : Model.Task.t -> Model.Task.t -> int
(** The canonical task ordering: lexicographic on tick-exact
    [(C, D, T, A)].  Names are ignored (the tests never read them). *)

val fragment : Model.Task.t -> string
(** One task's slice of a canonical key.  {!key} is exactly
    {!key_prefix} followed by the fragments of the tasks in canonical
    order — {!Delta} relies on this to rebuild keys incrementally. *)

val key_prefix : analyzer:Core.Analyzer.t -> fpga_area:int -> string
(** The device/analyzer-binding head of every canonical key. *)
