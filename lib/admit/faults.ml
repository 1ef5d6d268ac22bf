[@@@redf.det]

(* Deterministic fault injection for the durability stack.

   A plan is (spec, seed): the spec names per-mille probabilities for
   each fault site, the seed drives a private Rng stream, so a chaos
   run replays byte-identically.  All probabilities are integers in
   [0, 1000] — no floats, no wall clock, no environment reads here
   (the CLI gating lives in bin/).

   A fault that fires models a process death: the journal is left in
   the on-disk state the fault dictates (a torn prefix, a lost record,
   a fully durable record, or a torn prefix of a batch's records) and
   {!Crash} is raised.  The chaos harness catches it, "restarts" by
   re-running recovery over the same directory, and checks the
   recovery invariant. *)

type fate = Torn | Lost | After_append

exception Crash of fate * string

type spec = {
  torn_append : int;  (* crash mid-append: a strict prefix of the record hits disk *)
  fsync_fail : int;  (* write or fsync fails at append: the whole record is lost *)
  crash_after_append : int;  (* crash between append and reply: record durable, reply lost *)
  torn_sync : int;  (* power lost in a batch's fsync: a strict prefix of its bytes survives *)
}

let no_faults = { torn_append = 0; fsync_fail = 0; crash_after_append = 0; torn_sync = 0 }

type t = { spec : spec; rng : Rng.t option }

let none = { spec = no_faults; rng = None }
let create ~seed spec = { spec; rng = Some (Rng.create ~seed) }

let parse_spec s =
  let parse_field acc field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "fault %S: expected NAME=PERMILLE" field)
    | Some i -> (
      let name = String.trim (String.sub field 0 i) in
      let value = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
      match (acc, int_of_string_opt value) with
      | Error _, _ -> acc
      | Ok _, None -> Error (Printf.sprintf "fault %S: %S is not an integer" name value)
      | Ok _, Some p when p < 0 || p > 1000 ->
        Error (Printf.sprintf "fault %S: per-mille probability %d out of [0, 1000]" name p)
      | Ok spec, Some p -> (
        match name with
        | "torn" -> Ok { spec with torn_append = p }
        | "fsync" -> Ok { spec with fsync_fail = p }
        | "after-append" -> Ok { spec with crash_after_append = p }
        | _ ->
          Error (Printf.sprintf "unknown fault %S (known: torn, fsync, after-append)" name)))
  in
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun f -> f <> "")
  |> List.fold_left parse_field (Ok no_faults)

let fires t permille =
  match t.rng with
  | None -> false
  | Some rng -> permille > 0 && Rng.int rng 1000 < permille

(* What happens to the [len]-byte record being appended.  At most one
   fault fires per append; [`Torn] picks a strict prefix length from
   the same stream, so the torn byte boundary is seed-reproducible. *)
let on_append t ~len =
  if fires t t.spec.torn_append && len > 1 then
    `Torn (1 + Rng.int (Option.get t.rng) (len - 1))
  else if fires t t.spec.fsync_fail then `Lost
  else if fires t t.spec.crash_after_append then `Crash_after
  else `Ok

(* What the batch's fsync leaves of the [len] bytes appended since the
   last one.  At 0 per mille [fires] draws nothing, so the append sites'
   draws do not depend on how lines are batched. *)
let on_sync t ~len =
  if fires t t.spec.torn_sync then `Torn (Rng.int (Option.get t.rng) len) else `Ok
