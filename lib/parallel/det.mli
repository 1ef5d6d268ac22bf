(** Deterministic pseudo-random fan-out.

    Parallel Monte-Carlo runs stay bit-for-bit reproducible when every
    work item owns a generator whose state depends only on the master
    seed and the item's index — never on which worker runs it or in what
    order.  This module derives such generators with {!Rng.split},
    serially and in index order, before any parallel work starts; the
    combinators then pair item [i] with generator [i], so the result for
    any worker count (including 1) is identical. *)

val gens : Rng.t -> int -> Rng.t array
(** [gens master n] advances [master] and returns [n] independent
    generators, derived by [n] {!Rng.split}s in index order.  Calling it
    twice on equal master states yields equal arrays. *)

val init :
  ?chunk:int ->
  ?progress:(int -> int -> unit) ->
  Pool.t ->
  seed:int ->
  int ->
  (Rng.t -> int -> 'a) ->
  'a array
(** [init pool ~seed n f] is
    [[| f g.(0) 0; ...; f g.(n-1) (n-1) |]] for
    [g = gens (Rng.create ~seed) n],
    computed on the pool.  Each generator is used by exactly one item,
    so [f] may consume it freely. *)
