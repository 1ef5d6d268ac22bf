(** Polymorphic binary min-heap.

    Event queue substrate for the discrete-event scheduler simulator: the
    simulator keeps job releases and completions ordered by timestamp. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap ordered by [cmp] (minimum first). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the minimum element.
    @raise Invalid_argument on an empty heap. *)
