(* The crash/restart torture harness of the admission daemon, run by
   test_admit.ml.

   One run = [cycles] daemon lifetimes over a single state directory.
   Each lifetime drives random admit-protocol traffic (from the run
   seed; equal seeds replay byte-identically) against a daemon whose
   journal has fault injection armed, until either the op budget runs
   out or an injected crash kills it.  Then the daemon is "restarted"
   — recovery over the same directory — and the harness asserts the
   recovery invariant against a reference State.t it maintains from
   the acknowledged replies alone:

   - crash-free close, Torn, Lost: recovered state = reference (the
     in-flight mutation, if any, was never acknowledged and must not
     survive);
   - After_append: the record is durable but the reply was lost —
     recovered state = reference + exactly that one record, with the
     never-delivered reply stored under the request id (the lost-reply
     case rid dedup exists for);
   - any crash inside a batch ([config.batches]: seeded batches of 2–8
     lines through [handle_lines], and the [torn_sync] site at the
     batch's fsync): recovered state = reference + a prefix of the
     batch's admitted mutations, each with its never-sent reply stored
     under its id; retrying those ids returns the stored bytes and
     applies nothing twice.

   The reference keeps the daemon's dedup window
   ([config.dedup_window]), so it knows which ids a retry finds stored
   and which expired, and at which seq: a retried id inside the window
   must get its stored bytes, one past it [reply expired (seq S)], and
   neither may apply anything, across crashes and recoveries too.

   Independently, every verdict the daemon emits (admit decisions,
   query, what-if) is compared field-for-field against a from-scratch
   [analyzer.decide] on the taskset the harness knows that verdict
   describes — the byte-identity contract of the Delta/Verdicts
   incremental path, checked end to end through the wire format.

   Fully deterministic from [config.seed]: a failing run replays.  A
   run returns [Error] for an invariant violation, a recovery that
   refuses the directory included, and raises {!Setup} when the first
   daemon cannot be opened on [dir] at all, so a failure says which of
   the two it was. *)

module Json = Wire.Json
module Daemon = Admit.Daemon
module Faults = Admit.Faults
module State = Admit.State
module Store = Admit.Store

exception Setup of string

type config = {
  seed : int;
  cycles : int;  (* daemon lifetimes (= restarts/recoveries) *)
  ops_per_cycle : int;  (* op budget per lifetime if no crash fires *)
  spec : Faults.spec;
  analyzer : Core.Analyzer.t;
  fpga_area : int;
  snapshot_every : int;
  dedup_window : int;
  batches : bool;  (* drive [handle_lines] in batches of 2–8 lines, not [handle_line] *)
}

type stats = {
  cycles : int;
  crashes : int;  (* lifetimes ended by an injected crash *)
  torn_recoveries : int;  (* recoveries that truncated a torn tail *)
  replayed : int;  (* journal records replayed across all recoveries *)
  ops : int;  (* protocol lines driven *)
  admitted : int;
  rejected : int;
  dedup_hits : int;  (* duplicate-id retries answered with the stored bytes *)
  expired_hits : int;  (* retries past the dedup window, answered with the expired error *)
  verdicts_checked : int;  (* verdicts compared against from-scratch analysis *)
}

let default_spec =
  { Faults.torn_append = 60; fsync_fail = 40; crash_after_append = 80; torn_sync = 0 }

let default ~analyzer ~fpga_area =
  {
    seed = 1;
    cycles = 50;
    ops_per_cycle = 40;
    spec = default_spec;
    analyzer;
    fpga_area;
    snapshot_every = 32;
    dedup_window = Store.default_dedup_window;
    batches = false;
  }

let ( let* ) = Result.bind

(* --- random traffic --- *)

type gen = { rng : Rng.t; mutable next_task : int; mutable next_id : int }

let fresh_task g ~fpga_area =
  g.next_task <- g.next_task + 1;
  let period = 4 + Rng.int g.rng 60 in
  let deadline = 1 + Rng.int g.rng period in
  let exec = 1 + Rng.int g.rng deadline in
  let area = 1 + Rng.int g.rng (max 1 fpga_area) in
  Model.Task.make
    ~name:(Printf.sprintf "tau%d" g.next_task)
    ~exec:(Model.Time.of_units exec) ~deadline:(Model.Time.of_units deadline)
    ~period:(Model.Time.of_units period) ~area ()

let fresh_id g =
  g.next_id <- g.next_id + 1;
  Printf.sprintf "r%d" g.next_id

(* generated times are whole units, so Int fields fit the wire *)
let units t = Model.Time.ticks t / 1000

let task_wire_json (task : Model.Task.t) =
  Json.Obj
    [
      ("name", Json.String task.Model.Task.name);
      ("C", Json.Int (units task.Model.Task.exec));
      ("D", Json.Int (units task.Model.Task.deadline));
      ("T", Json.Int (units task.Model.Task.period));
      ("A", Json.Int task.Model.Task.area);
    ]

let add_line ~id task =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "add-task"); ("id", Json.String id); ("task", task_wire_json task) ])

let remove_line ~id name =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String "remove-task"); ("id", Json.String id); ("name", Json.String name) ])

let query_line = Json.to_string (Json.Obj [ ("op", Json.String "query") ])

let what_if_line ~add ~drop =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "what-if");
         ("add", Json.List (List.map task_wire_json add));
         ("drop", Json.List (List.map (fun n -> Json.String n) drop));
       ])

(* --- verdict oracle --- *)

let json_field reply key =
  match Json.of_string reply with Error _ -> None | Ok json -> Json.member key json

(* the reply's verdict, field for field, against a from-scratch
   analyzer run on the taskset the harness knows the reply describes *)
let check_verdict cfg ~what ~tasks reply =
  let expect_accepted, expect_checks =
    match tasks with
    | [] -> (Json.Bool true, Json.List [])
    | _ ->
      let fresh =
        cfg.analyzer.Core.Analyzer.decide ~fpga_area:cfg.fpga_area (Model.Taskset.of_list tasks)
      in
      let jv = Core.Verdict.to_json fresh in
      ( Option.value (Json.member "accepted" jv) ~default:Json.Null,
        Option.value (Json.member "checks" jv) ~default:Json.Null )
  in
  let got key = Option.map Json.to_string (json_field reply key) in
  if got "accepted" <> Some (Json.to_string expect_accepted) then
    Error
      (Printf.sprintf "%s: verdict mismatch: accepted %s, from-scratch %s (reply %s)" what
         (Option.value (got "accepted") ~default:"<missing>")
         (Json.to_string expect_accepted) reply)
  else if got "checks" <> Some (Json.to_string expect_checks) then
    Error (Printf.sprintf "%s: checks diverge from from-scratch analysis (reply %s)" what reply)
  else Ok ()

let reply_admitted reply =
  match json_field reply "admitted" with Some (Json.Bool b) -> b | _ -> false

let accepts cfg tasks =
  Core.Verdict.accepted
    (cfg.analyzer.Core.Analyzer.decide ~fpga_area:cfg.fpga_area (Model.Taskset.of_list tasks))

let rid_of id = Json.to_string (Json.String id)

(* the daemon's answer to a retry of [id], applied at [seq], once its
   reply has left the dedup window *)
let expired_reply id seq =
  Printf.sprintf {|{"error":"reply expired (seq %d)","id":%s,"kind":"error","schema_version":1}|}
    seq (rid_of id)

(* the taskset an admitted mutation leaves *)
let after st = function
  | State.Add task -> State.tasks st @ [ task ]
  | State.Remove name -> List.filter (fun t -> t.Model.Task.name <> name) (State.tasks st)

(* what was in flight when an injected crash ended a lifetime *)
type in_flight =
  | Line of Faults.fate * string * State.op  (* [handle_line]'s mutation: how it died, id, op *)
  | Batch of (string * State.op * string) list  (* the batch's mutation lines: id, op, line *)

(* The state a crash inside a batch may leave: the reference plus a
   prefix of the batch's admitted mutations, each with its reply under
   its id.  Walking the batch's mutation lines in order: a line whose
   id the state already answers is a retry and applies nothing; an add
   the analyzer refuses at its place was rejected; any other line was
   admitted, and the recovered state holds it unless it lies past the
   cut, after which it may hold none. *)
let batch_prefix cfg ~reference ~recovered mutations =
  List.fold_left
    (fun acc (id, op, _) ->
      let* expected, cut = acc in
      let rid = rid_of id in
      let admitted =
        match op with State.Remove _ -> true | State.Add _ -> accepts cfg (after expected op)
      in
      if State.lookup expected rid <> State.Unknown || not admitted then acc
      else
        let recovered_as reply =
          State.apply_record expected
            { State.seq = State.seq expected + 1; rid = Some rid; op; reply }
          |> Result.map (fun st -> (st, false))
        in
        match State.lookup recovered rid with
        | State.Unknown -> Ok (expected, true)
        | State.Stored _ | State.Expired _ when cut ->
          Error (Printf.sprintf "recovery kept batch mutation %s after a lost one" id)
        | State.Stored reply ->
          let* () =
            check_verdict cfg ~what:"recovered batch mutation" ~tasks:(after expected op) reply
          in
          recovered_as reply
        (* its reply already left the window, so the batch's later
           mutations must expire it from [expected] too *)
        | State.Expired _ -> recovered_as "")
    (Ok (reference, false)) mutations
  |> Result.map fst

let reply_is_error reply =
  match json_field reply "kind" with Some (Json.String "error") -> true | _ -> false

(* --- the run --- *)

(* The first open of [dir] is set-up: its failure raises [Setup].  A
   later one recovers what the harness's crashes left, so its failure
   is a violation of the recovery invariant. *)
let open_daemon ?faults ~first ~dir cfg =
  match
    Daemon.create ?faults ~snapshot_every:cfg.snapshot_every ~dedup_window:cfg.dedup_window
      ~analyzer:cfg.analyzer ~fpga_area:cfg.fpga_area ~dir ()
  with
  | Ok opened -> Ok opened
  | Error msg when first -> raise (Setup msg)
  | Error msg -> Error ("recovery refused the state directory: " ^ msg)

let run ~dir cfg =
  let gen = { rng = Rng.create ~seed:cfg.seed; next_task = 0; next_id = 0 } in
  let stats =
    ref
      {
        cycles = 0;
        crashes = 0;
        torn_recoveries = 0;
        replayed = 0;
        ops = 0;
        admitted = 0;
        rejected = 0;
        dedup_hits = 0;
        expired_hits = 0;
        verdicts_checked = 0;
      }
  in
  let bump f = stats := f !stats in
  (* acknowledged state, rebuilt from replies the "client" actually saw *)
  let reference = ref (State.with_dedup_window cfg.dedup_window State.empty) in
  (* what was in flight at the last crash *)
  let pending = ref None in
  (* acknowledged mutations (id, op, line), for batch retries *)
  let acked = ref [] in
  let apply_ack ~id ~op reply =
    match
      State.apply_record !reference
        {
          State.seq = State.seq !reference + 1;
          rid = Some (Json.to_string (Json.String id));
          op;
          reply;
        }
    with
    | Ok st -> reference := st
    | Error msg -> failwith ("chaos: reference apply: " ^ msg)
  in
  let check_recovery d (recovery : Store.recovery) =
    let recovered = Daemon.state d in
    if recovery.Store.torn_bytes > 0 then
      bump (fun s -> { s with torn_recoveries = s.torn_recoveries + 1 });
    bump (fun s -> { s with replayed = s.replayed + recovery.Store.replayed });
    let* expected =
      match !pending with
      | None | Some (Line ((Faults.Torn | Faults.Lost), _, _)) -> Ok !reference
      | Some (Batch mutations) -> batch_prefix cfg ~reference:!reference ~recovered mutations
      | Some (Line (Faults.After_append, id, op)) -> (
        (* durable but unacknowledged: the recovered state must contain
           it, with the never-delivered reply stored under the id *)
        let rid = Json.to_string (Json.String id) in
        match State.reply_for recovered rid with
        | None -> Error (Printf.sprintf "recovery lost the durable (after-append) record id %s" id)
        | Some reply ->
          State.apply_record !reference
            { State.seq = State.seq !reference + 1; rid = Some rid; op; reply })
    in
    if not (State.equal expected recovered) then
      Error
        (Printf.sprintf
           "recovery invariant violated: expected seq %d tasks [%s], recovered seq %d tasks [%s]"
           (State.seq expected)
           (String.concat ";" (State.names expected))
           (State.seq recovered)
           (String.concat ";" (State.names recovered)))
    else begin
      reference := recovered;
      (* a recovered batch mutation retried by id gets its stored,
         never-sent reply (or, past the window, the expired error), and
         nothing is applied twice *)
      let* () =
        match !pending with
        | Some (Batch mutations) ->
          List.fold_left
            (fun acc (id, op, line) ->
              let* () = acc in
              let want =
                match State.lookup recovered (rid_of id) with
                | State.Unknown -> None
                | State.Stored stored ->
                  bump (fun s -> { s with dedup_hits = s.dedup_hits + 1 });
                  Some stored
                | State.Expired seq ->
                  bump (fun s -> { s with expired_hits = s.expired_hits + 1 });
                  Some (expired_reply id seq)
              in
              match want with
              | None -> Ok ()
              | Some want ->
                if not (List.exists (fun (i, _, _) -> i = id) !acked) then
                  acked := (id, op, line) :: !acked;
                let retry = Daemon.handle_line d line in
                if retry <> want then
                  Error (Printf.sprintf "recovered id %s retried: %s, want %s" id retry want)
                else if not (State.equal (Daemon.state d) recovered) then
                  Error (Printf.sprintf "recovered id %s retried: applied twice" id)
                else Ok ())
            (Ok ()) mutations
        | None | Some (Line _) -> Ok ()
      in
      pending := None;
      (* the recovered verdict must match from-scratch analysis *)
      let reply = Daemon.handle_line d query_line in
      bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
      check_verdict cfg ~what:"post-recovery query" ~tasks:(State.tasks recovered) reply
    end
  in
  let drive d =
    let result = ref (Ok `Completed) in
    (try
       for _ = 1 to cfg.ops_per_cycle do
         match !result with
         | Error _ | Ok (`Crashed _) -> ()
         | Ok `Completed ->
           bump (fun s -> { s with ops = s.ops + 1 });
           let names = State.names !reference in
           let n_tasks = List.length names in
           let pick = Rng.int gen.rng 100 in
           if pick < 45 || n_tasks = 0 then begin
             (* add-task *)
             let task = fresh_task gen ~fpga_area:cfg.fpga_area in
             let id = fresh_id gen in
             let line = add_line ~id task in
             match Daemon.handle_line d line with
             | exception Faults.Crash (fate, _) ->
               pending := Some (Line (fate, id, State.Add task));
               result := Ok (`Crashed fate)
             | reply ->
               if reply_is_error reply then
                 result := Error (Printf.sprintf "add-task errored: %s" reply)
               else begin
                 bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
                 let candidate = State.tasks !reference @ [ task ] in
                 match check_verdict cfg ~what:"add-task" ~tasks:candidate reply with
                 | Error _ as e -> result := e
                 | Ok () ->
                   if reply_admitted reply then begin
                     bump (fun s -> { s with admitted = s.admitted + 1 });
                     apply_ack ~id ~op:(State.Add task) reply;
                     (* duplicate-id retry: same bytes back, no double
                        apply, no journal append (hence no fault site) *)
                     if Rng.int gen.rng 100 < 25 then begin
                       match Daemon.handle_line d line with
                       | exception Faults.Crash _ ->
                         result := Error "duplicate-id retry reached the journal"
                       | retry ->
                         bump (fun s -> { s with dedup_hits = s.dedup_hits + 1 });
                         if retry <> reply then
                           result :=
                             Error
                               (Printf.sprintf
                                  "duplicate-id retry returned different bytes:\n\
                                  \  first  %s\n\
                                  \  retry  %s" reply retry)
                         else if State.size (Daemon.state d) <> State.size !reference then
                           result := Error "duplicate-id retry double-applied the mutation"
                     end
                   end
                   else bump (fun s -> { s with rejected = s.rejected + 1 })
               end
           end
           else if pick < 65 then begin
             (* remove-task *)
             let name = List.nth names (Rng.int gen.rng n_tasks) in
             let id = fresh_id gen in
             match Daemon.handle_line d (remove_line ~id name) with
             | exception Faults.Crash (fate, _) ->
               pending := Some (Line (fate, id, State.Remove name));
               result := Ok (`Crashed fate)
             | reply ->
               if reply_is_error reply then
                 result := Error (Printf.sprintf "remove-task errored: %s" reply)
               else begin
                 bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
                 let remaining =
                   List.filter (fun t -> t.Model.Task.name <> name) (State.tasks !reference)
                 in
                 match check_verdict cfg ~what:"remove-task" ~tasks:remaining reply with
                 | Error _ as e -> result := e
                 | Ok () ->
                   bump (fun s -> { s with admitted = s.admitted + 1 });
                   apply_ack ~id ~op:(State.Remove name) reply
               end
           end
           else if pick < 85 then begin
             (* what-if: hypothetical add, sometimes with a drop *)
             let task = fresh_task gen ~fpga_area:cfg.fpga_area in
             let drop =
               if n_tasks > 0 && Rng.bool gen.rng then [ List.nth names (Rng.int gen.rng n_tasks) ]
               else []
             in
             let reply = Daemon.handle_line d (what_if_line ~add:[ task ] ~drop) in
             if reply_is_error reply then
               result := Error (Printf.sprintf "what-if errored: %s" reply)
             else begin
               bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
               let tasks =
                 List.filter
                   (fun t -> not (List.mem t.Model.Task.name drop))
                   (State.tasks !reference)
                 @ [ task ]
               in
               match check_verdict cfg ~what:"what-if" ~tasks reply with
               | Error _ as e -> result := e
               | Ok () -> ()
             end
           end
           else begin
             (* query *)
             let reply = Daemon.handle_line d query_line in
             if reply_is_error reply then
               result := Error (Printf.sprintf "query errored: %s" reply)
             else begin
               bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
               match check_verdict cfg ~what:"query" ~tasks:(State.tasks !reference) reply with
               | Error _ as e -> result := e
               | Ok () -> ()
             end
           end
       done
     with Failure msg -> result := Error msg);
    !result
  in
  (* One batch: 2–8 lines drawn from the reference as it stands before
     the batch, since no reply comes back before the batch's fsync:
     adds of fresh tasks, removes of distinct residents, what-ifs
     dropping a resident not removed earlier in the batch, queries, and
     retries of acknowledged mutations or of a mutation earlier in the
     same batch.  The replies are then checked in order against the
     reference as it grows, and the daemon's state against the
     reference at the end. *)
  let drive_batch d =
    let size = 2 + Rng.int gen.rng 7 in
    bump (fun s -> { s with ops = s.ops + size });
    let residents = ref (State.names !reference) in
    let mutations = ref [] in
    let mutation id op line =
      mutations := (id, op, line) :: !mutations;
      `Mutation (id, op, line)
    in
    let pick l = List.nth l (Rng.int gen.rng (List.length l)) in
    let draw () =
      let roll = Rng.int gen.rng 100 in
      if roll < 40 then begin
        let task = fresh_task gen ~fpga_area:cfg.fpga_area in
        let id = fresh_id gen in
        mutation id (State.Add task) (add_line ~id task)
      end
      else if roll < 60 && !residents <> [] then begin
        let name = pick !residents in
        residents := List.filter (fun n -> n <> name) !residents;
        let id = fresh_id gen in
        mutation id (State.Remove name) (remove_line ~id name)
      end
      else if roll < 70 && (!acked <> [] || !mutations <> []) then begin
        let from_batch = !acked = [] || (!mutations <> [] && Rng.bool gen.rng) in
        let id, op, line = pick (if from_batch then !mutations else !acked) in
        mutation id op line
      end
      else if roll < 85 then begin
        let task = fresh_task gen ~fpga_area:cfg.fpga_area in
        let drop = if !residents <> [] && Rng.bool gen.rng then [ pick !residents ] else [] in
        `What_if (task, drop)
      end
      else `Query
    in
    let lines = List.init size (fun _ -> draw ()) in
    let text = function
      | `Mutation (_, _, line) -> line
      | `What_if (task, drop) -> what_if_line ~add:[ task ] ~drop
      | `Query -> query_line
    in
    match Daemon.handle_lines d (Array.of_list (List.map text lines)) with
    | exception Faults.Crash (fate, _) ->
      pending := Some (Batch (List.rev !mutations));
      Ok (`Crashed fate)
    | replies ->
      let answered reply =
        if reply_is_error reply then Error (Printf.sprintf "batch line errored: %s" reply)
        else Ok ()
      in
      let check (line, reply) =
        match line with
        | `Mutation (id, op, line) -> (
          match State.lookup !reference (rid_of id) with
          | State.Stored stored ->
            bump (fun s -> { s with dedup_hits = s.dedup_hits + 1 });
            if reply = stored then Ok ()
            else Error (Printf.sprintf "retry of %s returned %s, stored %s" id reply stored)
          | State.Expired seq ->
            bump (fun s -> { s with expired_hits = s.expired_hits + 1 });
            if reply = expired_reply id seq then Ok ()
            else Error (Printf.sprintf "retry of %s past the window returned %s" id reply)
          | State.Unknown ->
            let* () = answered reply in
            bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
            let* () = check_verdict cfg ~what:"batch mutation" ~tasks:(after !reference op) reply in
            if reply_admitted reply then begin
              bump (fun s -> { s with admitted = s.admitted + 1 });
              apply_ack ~id ~op reply;
              acked := (id, op, line) :: !acked
            end
            else bump (fun s -> { s with rejected = s.rejected + 1 });
            Ok ())
        | `What_if (task, drop) ->
          let* () = answered reply in
          bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
          let tasks =
            List.filter (fun t -> not (List.mem t.Model.Task.name drop)) (State.tasks !reference)
            @ [ task ]
          in
          check_verdict cfg ~what:"batch what-if" ~tasks reply
        | `Query ->
          let* () = answered reply in
          bump (fun s -> { s with verdicts_checked = s.verdicts_checked + 1 });
          check_verdict cfg ~what:"batch query" ~tasks:(State.tasks !reference) reply
      in
      let* () =
        List.fold_left
          (fun acc pair ->
            let* () = acc in
            check pair)
          (Ok ())
          (List.combine lines (Array.to_list replies))
      in
      if State.equal (Daemon.state d) !reference then Ok `Completed
      else Error "the daemon's state after a batch differs from the acknowledged replies"
  in
  let drive_batches d =
    let goal = (!stats).ops + cfg.ops_per_cycle in
    let rec go () =
      if (!stats).ops >= goal then Ok `Completed
      else match drive_batch d with Ok `Completed -> go () | r -> r
    in
    go ()
  in
  let rec cycle i =
    if i > cfg.cycles then Ok ()
    else begin
      let faults = Faults.create ~seed:(cfg.seed + (7919 * i)) cfg.spec in
      let* d, recovery = open_daemon ~faults ~first:(i = 1) ~dir cfg in
      bump (fun s -> { s with cycles = s.cycles + 1 });
      let outcome =
        match check_recovery d recovery with
        | Error _ as e -> e
        | Ok () -> if cfg.batches then drive_batches d else drive d
      in
      Daemon.close d;
      match outcome with
      | Error _ as e -> e
      | Ok `Completed -> cycle (i + 1)
      | Ok (`Crashed _) ->
        bump (fun s -> { s with crashes = s.crashes + 1 });
        cycle (i + 1)
    end
  in
  let* () = cycle 1 in
  (* one last fault-free recovery so the run ends on a verified state *)
  let* d, recovery = open_daemon ~first:(cfg.cycles < 1) ~dir cfg in
  let r = check_recovery d recovery in
  Daemon.close d;
  let* () = r in
  Ok !stats

let pp_stats fmt s =
  Format.fprintf fmt
    "cycles %d  crashes %d  torn recoveries %d  records replayed %d  ops %d  admitted %d  \
     rejected %d  dedup hits %d  expired hits %d  verdicts checked %d"
    s.cycles s.crashes s.torn_recoveries s.replayed s.ops s.admitted s.rejected s.dedup_hits
    s.expired_hits s.verdicts_checked
