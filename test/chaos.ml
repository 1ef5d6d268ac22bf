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
     case rid dedup exists for).

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
}

type stats = {
  cycles : int;
  crashes : int;  (* lifetimes ended by an injected crash *)
  torn_recoveries : int;  (* recoveries that truncated a torn tail *)
  replayed : int;  (* journal records replayed across all recoveries *)
  ops : int;  (* protocol lines driven *)
  admitted : int;
  rejected : int;
  dedup_hits : int;  (* duplicate-id retries answered without re-applying *)
  verdicts_checked : int;  (* verdicts compared against from-scratch analysis *)
}

let default_spec = { Faults.torn_append = 60; fsync_fail = 40; crash_after_append = 80 }

let default ~analyzer ~fpga_area =
  {
    seed = 1;
    cycles = 50;
    ops_per_cycle = 40;
    spec = default_spec;
    analyzer;
    fpga_area;
    snapshot_every = 32;
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

let reply_is_error reply =
  match json_field reply "kind" with Some (Json.String "error") -> true | _ -> false

(* --- the run --- *)

(* The first open of [dir] is set-up: its failure raises [Setup].  A
   later one recovers what the harness's crashes left, so its failure
   is a violation of the recovery invariant. *)
let open_daemon ?faults ~first ~dir cfg =
  match
    Daemon.create ?faults ~snapshot_every:cfg.snapshot_every ~analyzer:cfg.analyzer
      ~fpga_area:cfg.fpga_area ~dir ()
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
        verdicts_checked = 0;
      }
  in
  let bump f = stats := f !stats in
  (* acknowledged state, rebuilt from replies the "client" actually saw *)
  let reference = ref State.empty in
  (* (fate, id, op) of the mutation in flight at the last crash *)
  let pending = ref None in
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
      | None | Some ((Faults.Torn | Faults.Lost), _, _) -> Ok !reference
      | Some (Faults.After_append, id, op) -> (
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
               pending := Some (fate, id, State.Add task);
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
               pending := Some (fate, id, State.Remove name);
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
  let rec cycle i =
    if i > cfg.cycles then Ok ()
    else begin
      let faults = Faults.create ~seed:(cfg.seed + (7919 * i)) cfg.spec in
      let* d, recovery = open_daemon ~faults ~first:(i = 1) ~dir cfg in
      bump (fun s -> { s with cycles = s.cycles + 1 });
      let outcome =
        match check_recovery d recovery with
        | Error _ as e -> e
        | Ok () -> drive d
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
     rejected %d  dedup hits %d  verdicts checked %d"
    s.cycles s.crashes s.torn_recoveries s.replayed s.ops s.admitted s.rejected s.dedup_hits
    s.verdicts_checked
