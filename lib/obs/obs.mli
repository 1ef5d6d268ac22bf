(** Process-wide observability: a metrics registry and span profiling.

    Instrumented code registers named metrics once (typically at module
    initialization) and updates them through cheap handles.  All updates
    are gated on a single process-wide {!enabled} flag, default [off]:
    a disabled counter bump or span is one atomic load and a branch, so
    instrumenting a hot loop costs nothing unless someone asked to
    measure (the bench harness quantifies this; see EXPERIMENTS.md
    "Observability").

    Every metric is domain-safe — counters and gauges are [Atomic]s,
    timers take a per-timer [Mutex] — so instrumented code composes with
    the {!Parallel} domain pool without coordination.

    Metrics carry a [det] (deterministic) tag: a [det] metric must reach
    the same value for the same command regardless of the worker count
    (e.g. work items evaluated), while timers, occupancy gauges and
    chunk counts are inherently run-dependent.  {!Snapshot.diff}
    [~det_only:true] compares only the former, which is how CI asserts
    that parallel runs do the same logical work as serial ones. *)

val enabled : unit -> bool
(** Whether metric updates are recorded.  Off by default. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered metric (registration and handles survive). *)

module Counter : sig
  type t

  val make : ?det:bool -> string -> t
  (** Register (or look up) the monotonic counter [name].  [det]
      defaults to [true]; re-registration returns the existing counter.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val incr : t -> unit
  (** Add one; a no-op while disabled. *)

  val add : t -> int -> unit
  (** Add [n >= 0]; a no-op while disabled. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : ?det:bool -> string -> t
  (** Register (or look up) the gauge [name].  [det] defaults to
      [false]: most gauges (pool occupancy, high-water marks) depend on
      scheduling.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val set : t -> int -> unit
  (** Overwrite the value; a no-op while disabled. *)

  val set_max : t -> int -> unit
  (** Raise the value to [n] if above the current one (atomic);
      a no-op while disabled. *)

  val value : t -> int
end

module Timer : sig
  type t

  val make : string -> t
  (** Register (or look up) the histogram timer [name].  Timers are
      never [det]: they aggregate wall-clock durations.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val record_ns : t -> int -> unit
  (** Fold one duration (nanoseconds, clamped at 0) into the
      count/sum/min/max aggregate; a no-op while disabled. *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time t f] records the wall time of [f ()] into [t]; exactly
      [f ()] while disabled.  Unlike {!Span.with_} the recorded name is
      fixed, independent of enclosing spans — use it for work items
      that may run on any pool domain. *)

  val count : t -> int
  val sum_ns : t -> int
end

module Span : sig
  val with_ : name:string -> (unit -> 'a) -> 'a
  (** [with_ ~name f] runs [f ()] and records its wall time under
      [name], prefixed by the names of enclosing spans on the same
      domain ("outer/inner"), so nested phases show up as distinct
      timers.  While disabled this is exactly [f ()] — no clock read,
      no allocation beyond the closure. *)
end

module Snapshot : sig
  (** A snapshot is the registry frozen as a sorted association list;
      its canonical wire form is JSON lines — one flat, key-sorted
      {!Wire.Json} object per metric, lines sorted by name — so two
      snapshots are comparable with [cmp]/[diff] and greppable per
      kind. *)

  type entry =
    | Counter of { det : bool; value : int }
    | Gauge of { det : bool; value : int }
    | Timer of { count : int; sum_ns : int; min_ns : int; max_ns : int }

  type t = (string * entry) list

  val take : unit -> t
  (** Freeze every registered metric, sorted by name. *)

  val to_jsonl : t -> string

  val of_jsonl : string -> (t, string) result
  (** Parse {!to_jsonl} output (or a prefix-compatible file); the
      result is re-sorted by name.  Blank lines are skipped; errors
      name the offending line by its position in the string. *)

  val diff : ?det_only:bool -> t -> t -> string list
  (** Human-readable difference lines ("- name …" only in the first,
      "+ name …" only in the second, "~ name: a -> b" changed); [[]]
      means the snapshots agree.  [det_only] (default [false])
      restricts the comparison to [det]-tagged counters and gauges —
      the values that must not depend on the worker count. *)
end
