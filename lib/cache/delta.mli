(** Incrementally maintained canonical form of a named taskset.

    The online admission daemon ([lib/admit]) holds a live taskset and
    mutates it one task at a time; this structure keeps the canonical
    order and per-task key fragments across those deltas, so the
    canonical cache key of the next state (or of a what-if candidate)
    is a splice plus a concatenation instead of a fresh sort and
    re-format of every task.

    Contract (asserted by [test_admit.ml] over random mutation traces):
    for every reachable [d], [key d ~analyzer ~fpga_area] is
    byte-identical to [Canonical.key ~analyzer ~fpga_area] of the
    materialized taskset, and verdicts decided through
    {!Verdicts.decide_canonical} with this structure's key/order are
    byte-identical to {!Verdicts.decide} (and thus to from-scratch
    analysis).

    The structure is immutable: a what-if candidate is [add]/[remove]
    on the current value, with nothing to undo.  Task names must be
    unique and non-empty (the daemon's admission rule). *)

type t

val empty : t
val of_tasks : Model.Task.t list -> t
val size : t -> int

val add : t -> Model.Task.t -> t
(** @raise Invalid_argument on an empty or duplicate name. *)

val remove : t -> string -> t
(** Remove the task with this name.
    @raise Invalid_argument when no task has it. *)

val mem : t -> string -> bool

val key : t -> analyzer:Core.Analyzer.t -> fpga_area:int -> string
(** The canonical cache key, equal to {!Canonical.key} of
    {!canonical_taskset} — built without sorting or re-formatting. *)

val canonical_taskset : t -> Model.Taskset.t
(** Tasks in canonical order with names dropped, as {!Canonical.apply}
    would produce.  @raise Invalid_argument when empty. *)

val order : t -> original:string list -> int array
(** [order.(p)] is the index in [original] (the caller's task order,
    matched by name) of the task at canonical position [p] — the
    permutation {!Verdicts.decide_canonical} needs to map the cached
    verdict's checks back to the caller's order.
    @raise Invalid_argument when a canonical task's name is not in
    [original]. *)
