(* admit-churn: one connection to a [redf admit] daemon (GN2, area
   100, default snapshot rotation, fsync on).  Set-up admits a resident
   taskset and runs one op cycle; the timed phase repeats the cycle:
   id-carrying remove/re-add mutations of resident tasks, what-ifs
   drawn from a small candidate pool, and queries.  Every canonical
   taskset a cycle asks about recurs in the next cycle, so after the
   warm cycle every verdict is a cache hit and the daemon's own work —
   JSON, Cache.Delta keys, journal frame + CRC + write + fsync,
   snapshot rotation — is what is measured. *)

open Common
module Json = Core.Json

let area = 100
let resident = 24
let candidates = 8
let targets = 8  (* resident tasks removed and re-added each cycle *)
let ops_per_round = 6
let window = ops_per_round
let read_rounds = 5
let ops_per_cycle = targets * ops_per_round * (1 + read_rounds)
let ops_per_s = 7000
let replay_ops = 4800
let setups = 5
let snapshot_every = 1024  (* the daemon's default rotation *)

(* Light tasks, so GN2 admits all of them together on area 100.
   Periods are whole time units and execution times multiples of 0.05:
   the exact-rational cost of a GN2 decide grows with the denominators
   involved, and on the generator's finer default grids it varies
   more than twofold from one seed's resident set to the next. *)
let light_profile n =
  {
    (Model.Generator.unconstrained ~n) with
    Model.Generator.fpga_area = area;
    area_lo = 1;
    area_hi = 12;
    util_lo = 0.01;
    util_hi = 0.08;
    period_grid = 1000;
  }

let exec_grid = 50  (* ticks *)

let named prefix ts =
  Array.mapi
    (fun i (t : Model.Task.t) ->
      let c = Model.Time.ticks t.Model.Task.exec in
      let c = max exec_grid ((c + (exec_grid / 2)) / exec_grid * exec_grid) in
      { t with Model.Task.name = Printf.sprintf "%s%d" prefix i; exec = Model.Time.of_ticks c })
    (Model.Taskset.to_array ts)

let wire_task (t : Model.Task.t) =
  Json.Obj
    [
      ("name", Json.String t.Model.Task.name);
      ("C", Json.String (Model.Time.to_string t.Model.Task.exec));
      ("D", Json.String (Model.Time.to_string t.Model.Task.deadline));
      ("T", Json.String (Model.Time.to_string t.Model.Task.period));
      ("A", Json.Int t.Model.Task.area);
    ]

type op = Add of Model.Task.t | Remove of string | What_if of Model.Task.t | Query

let line ~id op =
  let fields =
    match op with
    | Add t -> [ ("op", Json.String "add-task"); ("task", wire_task t) ]
    | Remove n -> [ ("op", Json.String "remove-task"); ("name", Json.String n) ]
    | What_if t -> [ ("op", Json.String "what-if"); ("add", Json.List [ wire_task t ]) ]
    | Query -> [ ("op", Json.String "query") ]
  in
  Json.to_string (Json.Obj (("id", Json.String id) :: fields))

type inputs = {
  setup : op array;  (* resident admits, then one cycle *)
  timed : op array;
  lines : string array;  (* setup @ timed, rendered *)
}

let inputs ~seed ~seconds =
  let rng = Rng.create ~seed in
  let res = named "r" (Model.Generator.draw rng (light_profile resident)) in
  let cands = named "c" (Model.Generator.draw rng (light_profile candidates)) in
  let order = Array.init resident Fun.id in
  Rng.shuffle rng order;
  (* per target: one round of two id-carrying mutations between reads,
     then [read_rounds] rounds of what-ifs and queries *)
  let cycle () =
    List.concat
      (List.init targets (fun j ->
           let t = res.(order.(j)) in
           let reads r =
             List.concat
               (List.init (ops_per_round / 2) (fun q ->
                    [ What_if cands.((j + r + q) mod candidates); Query ]))
           in
           [
             Remove t.Model.Task.name;
             What_if cands.(j mod candidates);
             Query;
             Add t;
             What_if cands.((j + 1) mod candidates);
             Query;
           ]
           @ List.concat (List.init read_rounds reads)))
  in
  let cycles = max 1 (((ops_per_s * seconds) + ops_per_cycle - 1) / ops_per_cycle) in
  let setup = Array.of_list (Array.to_list (Array.map (fun t -> Add t) res) @ cycle ()) in
  let timed = Array.of_list (List.concat (List.init cycles (fun _ -> cycle ()))) in
  let all = Array.append setup timed in
  { setup; timed; lines = Array.mapi (fun i op -> line ~id:(Printf.sprintf "o%d" i) op) all }

(* --- the daemon side --- *)

let spawn_daemon ~redf ~dir ~state k =
  let sock = Filename.concat dir (Printf.sprintf "admit%d.sock" k) in
  let pid =
    spawn redf
      [ "admit"; "--dir"; state; "--socket"; sock; "--analyzer"; "GN2"; "--fpga-area"; string_of_int area ]
      ~log:(Filename.concat dir "admit.log")
  in
  (pid, sock)

let exchange sock lines =
  let fd = connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Array.length lines in
      let replies = Array.make n "" and lat = Array.make n 0.0 in
      closed_loop ~window [| conn fd lines |] ~on_reply:(fun _ i ~sent ~received l ->
          replies.(i) <- l;
          lat.(i) <- ns_between sent received /. 1e3);
      (replies, lat))

type daemon_run = {
  replies : string array;  (* setup @ timed *)
  latencies_us : float array;  (* timed phase *)
  wall_s : float;
  cpu_ratio : float;
  rss_mb : float;
  setups_s : float array;
  recovered : string;  (* query answered by a restarted daemon *)
  final : string;  (* last query before the restart *)
  on_disk : Admit.Store.recovery;  (* what reopening the daemon's state directory finds *)
}

let drive ~redf ~dir ~setups inputs =
  let nsetup = Array.length inputs.setup in
  let runs =
    List.init setups (fun k ->
        let t0 = now_ns () in
        let state = Filename.concat dir (Printf.sprintf "state%d" k) in
        let pid, sock = spawn_daemon ~redf ~dir ~state k in
        let replies, _ = exchange sock (Array.sub inputs.lines 0 nsetup) in
        let setup_s = seconds_since t0 in
        if k < setups - 1 then stop pid;
        (pid, sock, state, setup_s, replies))
  in
  let pid, sock, state, _, setup_replies = List.nth runs (setups - 1) in
  let cpu0 = cpu_seconds () and t0 = now_ns () in
  let timed_replies, latencies_us =
    exchange sock (Array.sub inputs.lines nsetup (Array.length inputs.timed))
  in
  let wall_s = seconds_since t0 in
  let cpu_ratio = (cpu_seconds () -. cpu0) /. wall_s in
  let final = roundtrip sock (line ~id:"final" Query) in
  let rss_mb = peak_rss_mb (string_of_int pid) in
  stop pid;
  (* a restarted daemon on the same state directory must recover it *)
  let pid, sock = spawn_daemon ~redf ~dir ~state setups in
  let recovered = roundtrip sock (line ~id:"recovered" Query) in
  stop pid;
  let on_disk =
    match Admit.Store.open_dir ~dir:state () with
    | Ok (store, r) ->
      Admit.Store.close store;
      r
    | Error e -> failf "reopening %s: %s" state e
  in
  {
    replies = Array.append setup_replies timed_replies;
    latencies_us;
    wall_s;
    cpu_ratio;
    rss_mb;
    setups_s = Array.of_list (List.map (fun (_, _, _, s, _) -> s) runs);
    recovered;
    final;
    on_disk;
  }

(* --- correctness: replies against the generator's model --- *)

let member_int k j = match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

(* Walk the ops with the model (admission-order names, seq) the
   acknowledged replies imply; returns (wrong replies, rejected
   mutations, final model). *)
let check inputs replies =
  let ops = Array.append inputs.setup inputs.timed in
  let names = ref [] and seq = ref 0 and bad = ref 0 and rejected = ref 0 in
  Array.iteri
    (fun i op ->
      match Json.of_string replies.(i) with
      | Error _ -> incr bad
      | Ok j ->
        let is_admit = Json.member "kind" j = Some (Json.String "admit") in
        let admitted = Json.member "admitted" j = Some (Json.Bool true) in
        let expect_tasks, mutation =
          match op with
          | Add t ->
            if admitted then begin
              names := !names @ [ t.Model.Task.name ];
              incr seq
            end;
            (List.length !names, true)
          | Remove n ->
            if admitted then begin
              names := List.filter (fun m -> m <> n) !names;
              incr seq
            end;
            (List.length !names, true)
          | What_if _ -> (List.length !names + 1, false)
          | Query -> (List.length !names, false)
        in
        if mutation && not admitted then incr rejected;
        if
          (not is_admit)
          || member_int "seq" j <> Some !seq
          || member_int "tasks" j <> Some expect_tasks
        then incr bad)
    ops;
  (!bad, !rejected, !names, !seq)

let query_matches reply ~names ~seq =
  match Json.of_string reply with
  | Error _ -> false
  | Ok j ->
    member_int "seq" j = Some seq
    && member_int "tasks" j = Some (List.length names)
    && Json.member "names" j = Some (Json.List (List.map (fun n -> Json.String n) names))

let verify inputs run =
  let bad, rejected, names, seq = check inputs run.replies in
  let bad = bad + if query_matches run.final ~names ~seq then 0 else 1 in
  let bad = bad + if query_matches run.recovered ~names ~seq then 0 else 1 in
  (bad, rejected, seq)

let mutation_latencies inputs run =
  let acc = ref [] in
  Array.iteri
    (fun i op -> match op with Add _ | Remove _ -> acc := run.latencies_us.(i) :: !acc | _ -> ())
    inputs.timed;
  Array.of_list !acc

let end_to_end ~redf ~dir ~seed ~seconds =
  let inputs = inputs ~seed ~seconds in
  let run = drive ~redf ~dir ~setups inputs in
  let bad, rejected, _ = verify inputs run in
  let ops = Array.length run.latencies_us in
  let writes = mutation_latencies inputs run in
  {
    attempted = Array.length run.replies + 2;
    failed = bad + rejected;
    metrics =
      [
        metric "throughput_ops_s" "1/s" (float_of_int ops /. run.wall_s);
        metric "latency_p50_us" "us" (percentile run.latencies_us 0.50);
        metric "setup_s" "s" (median run.setups_s);
        metric "peak_rss_mb" "MB" run.rss_mb;
      ];
    notes =
      [
        Printf.sprintf "latency p50 %.1f us, p99 %.1f us over n=%d replies (1 connection x window %d)"
          (percentile run.latencies_us 0.50) (percentile run.latencies_us 0.99) ops window;
        Printf.sprintf "add/remove latency p50 %.1f us over n=%d mutations" (percentile writes 0.5)
          (Array.length writes);
        Printf.sprintf "setup_s is the median of %d set-ups (%d admits + one %d-op cycle): %s" setups
          resident ops_per_cycle
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") run.setups_s)));
        Printf.sprintf "rejected mutations: %d; generator cpu/wall %.3f over %.2f s" rejected run.cpu_ratio
          run.wall_s;
      ];
  }

(* --- traced replay --- *)

(* Replays the set-up and the first [replay_ops] timed ops through an
   in-process [Admit.Daemon] (root span: [handle_line]) and, on the
   same inputs, through each layer the daemon calls: JSON parse, the
   Cache.Delta splice + key + order, the verdict cache, verdict
   encoding, and a second store that commits the daemon's own journal
   records.  The replay journals fewer records than a rotation period,
   so it times one snapshot of the replayed state at its end. *)
let replay inputs ~expected ~dir ~tag ~layers ~setup_spans ~spans =
  let gn2 = Core.Analyzer.gn2 in
  let root_dir = Filename.concat dir (tag ^ "-daemon") in
  let mirror_dir = Filename.concat dir (tag ^ "-mirror") in
  let daemon =
    match Admit.Daemon.create ~analyzer:gn2 ~fpga_area:area ~dir:root_dir () with
    | Ok (d, _) -> d
    | Error e -> failf "admit daemon: %s" e
  in
  let store =
    match Admit.Store.open_dir ~snapshot_every:max_int ~dir:mirror_dir () with
    | Ok (s, _) -> s
    | Error e -> failf "admit store: %s" e
  in
  Fun.protect ~finally:(fun () -> Admit.Daemon.close daemon; Admit.Store.close store) @@ fun () ->
  let cache = Cache.Verdicts.create ~capacity:4096 () in
  let delta = ref Cache.Delta.empty and names = ref [] in
  let journal_bytes = ref 0 and commits = ref 0 in
  let parent = ref (-1) and req = ref 0 in
  let traced_setup = Spans.traced_analyzer setup_spans ~parent ~req gn2 in
  let traced_timed = Spans.traced_analyzer spans ~parent ~req gn2 in
  let nsetup = Array.length inputs.setup in
  let ops = Array.append inputs.setup (Array.sub inputs.timed 0 (min replay_ops (Array.length inputs.timed))) in
  let mismatches = ref 0 in
  let stats0 = ref (Cache.Verdicts.stats cache) in
  let t0 = ref (now_ns ()) in
  Array.iteri
    (fun i op ->
      if i = nsetup then begin
        stats0 := Cache.Verdicts.stats cache;
        t0 := now_ns ()
      end;
      let sp = if i < nsetup then setup_spans else spans in
      let line = inputs.lines.(i) in
      let root = Spans.fresh_id sp in
      let name =
        match op with
        | Add _ -> "admit.daemon.add" | Remove _ -> "admit.daemon.remove"
        | What_if _ -> "admit.daemon.what_if" | Query -> "admit.daemon.query"
      in
      let reply =
        Spans.record sp ~id:root ~name ~parent:(-1) ~req:i (fun () -> Admit.Daemon.handle_line daemon line)
      in
      if layers then begin
        let json =
          Spans.record sp ~name:"core.json.of_string" ~parent:root ~req:i (fun () -> Core.Json.of_string line)
        in
        let id = match json with Ok j -> Core.Json.member "id" j | Error _ -> None in
        let original =
          match op with
          | Add t | What_if t -> !names @ [ t.Model.Task.name ]
          | Remove n -> List.filter (fun m -> m <> n) !names
          | Query -> !names
        in
        let candidate, key, canonical, order =
          Spans.record sp ~name:"cache.delta" ~parent:root ~req:i (fun () ->
              let candidate =
                match op with
                | Add t | What_if t -> Cache.Delta.add !delta t
                | Remove n -> Cache.Delta.remove !delta n
                | Query -> !delta
              in
              ( candidate,
                Cache.Delta.key candidate ~analyzer:gn2 ~fpga_area:area,
                Cache.Delta.canonical_taskset candidate,
                Cache.Delta.order candidate ~original ))
        in
        let v = Spans.fresh_id sp in
        parent := v;
        req := i;
        let verdict =
          Spans.record sp ~id:v ~name:"cache.verdicts.decide_canonical" ~parent:root ~req:i (fun () ->
              Cache.Verdicts.decide_canonical cache
                ~analyzer:(if i < nsetup then traced_setup else traced_timed)
                ~fpga_area:area ~key ~canonical ~order)
        in
        ignore
          (Spans.record sp ~name:"core.report.verdict_json" ~parent:root ~req:i (fun () ->
               Core.Json.to_string (Core.Report.verdict_json gn2 verdict)));
        match op with
        | Add _ | Remove _ ->
          let record =
            {
              Admit.State.seq = Admit.State.seq (Admit.Store.state store) + 1;
              rid = Option.map Core.Json.to_string id;
              op = (match op with Add t -> Admit.State.Add t | Remove n -> Admit.State.Remove n | _ -> assert false);
              reply;
            }
          in
          let before = Admit.Store.journal_bytes store in
          (match
             Spans.record sp ~name:"admit.store.commit" ~parent:root ~req:i (fun () ->
                 Admit.Store.commit ~fsync:true store record)
           with
           | Ok () -> ()
           | Error e -> failf "mirror commit: %s" e);
          journal_bytes := !journal_bytes + (Admit.Store.journal_bytes store - before);
          incr commits;
          delta := candidate;
          names := original
        | What_if _ | Query -> ()
      end;
      if i < Array.length expected && not (String.equal reply expected.(i)) then incr mismatches)
    ops;
  let wall = seconds_since !t0 in
  if layers then
    Spans.record spans ~name:"admit.store.snapshot" ~parent:(-1) ~req:(Array.length ops) (fun () ->
        Admit.Store.snapshot store);
  let s1 = Cache.Verdicts.stats cache in
  let hits = s1.Cache.Lru.hits - !stats0.Cache.Lru.hits
  and misses = s1.Cache.Lru.misses - !stats0.Cache.Lru.misses in
  let snapshot_bytes =
    let p = Filename.concat mirror_dir "snapshot.bin" in
    if Sys.file_exists p then file_size p else 0
  in
  (wall, Array.length ops - nsetup, hits, misses, snapshot_bytes,
   Common.mean_or_zero (float_of_int !journal_bytes) !commits, !mismatches)

let traced ~redf ~dir ~seed ~seconds ~spans_path =
  let inputs = inputs ~seed ~seconds in
  let run = drive ~redf ~dir ~setups:1 inputs in
  let bad, rejected, seq = verify inputs run in
  let writes = mutation_latencies inputs run in
  let expected = run.replies in
  let bare_wall, _, _, _, _, _, bare_mismatches =
    replay inputs ~expected ~dir ~tag:"bare" ~layers:false ~setup_spans:(Spans.create ()) ~spans:(Spans.create ())
  in
  let setup_spans = Spans.create () and spans = Spans.create () in
  let wall, ops, hits, misses, snapshot_bytes, bytes_per_mutation, mismatches =
    replay inputs ~expected ~dir ~tag:"traced" ~layers:true ~setup_spans ~spans
  in
  Spans.write_json spans spans_path;
  let self = Spans.self_times spans and total = Spans.totals spans in
  let per_op tbl name = fst (Spans.lookup tbl name) /. 1e3 /. float_of_int ops in
  let per_call tbl name =
    let ns, n = Spans.lookup tbl name in
    Common.mean_or_zero (ns /. 1e3) n
  in
  let roots = [ "admit.daemon.add"; "admit.daemon.remove"; "admit.daemon.what_if"; "admit.daemon.query" ] in
  let unaccounted = List.fold_left (fun acc r -> acc +. fst (Spans.lookup self r)) 0.0 roots in
  let hit_ratio = Common.mean_or_zero (float_of_int hits) (hits + misses) in
  (* every admitted mutation is one journal record; the daemon rotates
     its snapshot each [snapshot_every] of them *)
  let want_snapshot = seq / snapshot_every * snapshot_every and want_journal = seq mod snapshot_every in
  let on_disk = run.on_disk in
  let metrics =
    [
      metric "admit.daemon.add_us" "us" (per_call total "admit.daemon.add");
      metric "admit.daemon.remove_us" "us" (per_call total "admit.daemon.remove");
      metric "admit.daemon.what_if_us" "us" (per_call total "admit.daemon.what_if");
      metric "admit.daemon.query_us" "us" (per_call total "admit.daemon.query");
      metric "core.json.of_string_us" "us" (per_op self "core.json.of_string");
      metric "cache.delta.us" "us" (per_op self "cache.delta");
      metric "cache.verdicts.decide_canonical_us" "us" (per_op self "cache.verdicts.decide_canonical");
      metric "core.report.verdict_json_us" "us" (per_op self "core.report.verdict_json");
      metric "admit.store.commit_us" "us" (per_call self "admit.store.commit");
      metric "admit.store.snapshot_us" "us" (per_call self "admit.store.snapshot");
      metric "admit.store.snapshot_bytes" "count" (float_of_int snapshot_bytes);
      metric "admit.journal.bytes_per_mutation" "count" bytes_per_mutation;
      metric "admit.daemon.unaccounted_us" "us" (unaccounted /. 1e3 /. float_of_int ops);
      metric "admit.cache.hit_ratio" "ratio" hit_ratio;
      metric "admit.write_latency_p50_us" "us" (percentile writes 0.5);
      metric "loadgen.cpu_ratio" "ratio" run.cpu_ratio;
      metric "loadgen.latency_p99_us" "us" (percentile run.latencies_us 0.99);
      metric "trace.overhead_ratio" "ratio" (wall /. bare_wall);
    ]
    @ Spans.analyzer_metrics setup_spans
  in
  let guards =
    [
      (rejected = 0, Printf.sprintf "admit-churn: %d rejected mutations (want 0)" rejected);
      (hit_ratio = 1.0, Printf.sprintf "admit-churn: timed-phase cache hit ratio %.4f (want 1)" hit_ratio);
      (want_snapshot > 0
       && on_disk.Admit.Store.snapshot_seq = want_snapshot
       && on_disk.Admit.Store.replayed = want_journal
       && on_disk.Admit.Store.torn_bytes = 0,
       Printf.sprintf
         "admit-churn: the daemon's state dir holds a snapshot at seq %d and %d journal records (want %d > 0 and %d)"
         on_disk.Admit.Store.snapshot_seq on_disk.Admit.Store.replayed want_snapshot want_journal);
      (run.cpu_ratio < 0.8, Printf.sprintf "generator cpu/wall %.3f < 0.8" run.cpu_ratio);
    ]
  in
  ( {
      attempted = Array.length run.replies + 2 + ops;
      failed = bad + rejected + bare_mismatches + mismatches;
      metrics;
      notes = [ Printf.sprintf "replayed set-up + %d timed ops in-process" ops ];
    },
    guards )
