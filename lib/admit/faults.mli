(** Deterministic fault injection for the write-ahead journal.

    Built for the chaos harness (test/chaos.ml) and gated off by
    default: {!none} never fires, and the daemon only ever sees faults
    when [redf admit --faults] passes a spec.  A plan is a spec of
    per-mille probabilities plus a seed; equal (spec, seed) pairs fire
    identically, so every chaos failure replays.

    A firing fault models [kill -9] at a specific byte boundary: the
    journal is left exactly as the dying process would leave it, and
    {!Crash} is raised for the harness to catch and "restart" from. *)

type fate =
  | Torn  (** a strict prefix of the record (or of a batch's records) reached the file *)
  | Lost  (** the record is gone entirely *)
  | After_append  (** the record is durable; only the reply was lost *)

exception Crash of fate * string
(** The injected [kill -9].  The chaos harness needs the {!fate} to
    know whether the in-flight mutation must, may not, or must not
    appear in the recovered state. *)

type spec = {
  torn_append : int;
      (** per-mille chance an append crashes mid-write: a strict prefix
          of the framed record reaches the file. *)
  fsync_fail : int;
      (** per-mille chance the append's write or fsync fails: the
          record is lost entirely (the conservative reading of a failed
          fsync). *)
  crash_after_append : int;
      (** per-mille chance of dying between the fsync'd append and the
          reply: the record is durable, the client never hears back —
          the case request-id deduplication exists for. *)
  torn_sync : int;
      (** per-mille chance power fails during a batch's fsync: a strict
          prefix of the bytes appended since the last fsync reaches the
          file, possibly ending inside a record, and none of the batch's
          replies is sent.  Set by the chaos harness only: which lines
          share a batch depends on arrival timing, so [--faults] has no
          name for it. *)
}

val parse_spec : string -> (spec, string) result
(** Parse ["torn=5,fsync=2,after-append=10"] (integers per mille;
    [torn_sync] is 0). *)

type t

val none : t
(** Never fires (no Rng is even consulted). *)

val create : seed:int -> spec -> t

val on_append : t -> len:int -> [ `Ok | `Torn of int | `Lost | `Crash_after ]
(** The fate of the [len]-byte framed record about to be appended.
    At most one fault fires; [`Torn k] asks the journal to write only
    the first [k] bytes ([1 <= k < len]) before raising {!Crash}. *)

val on_sync : t -> len:int -> [ `Ok | `Torn of int ]
(** The fate of the [len > 0] bytes appended since the last fsync, at
    the fsync that ends a batch.  [`Torn k] asks the journal to keep
    only the first [k] of them ([0 <= k < len]) before raising
    {!Crash} with fate [Torn].  Draws nothing while [torn_sync] is 0. *)
