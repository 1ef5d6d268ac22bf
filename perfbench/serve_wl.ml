(* serve-hit and serve-miss: closed-loop traffic against a [redf serve]
   daemon on a Unix socket.

   serve-hit cycles over a working set of distinct canonical tasksets
   x DP/GN1/GN2, far below the 4096-entry verdict cache; every resend
   is a variant with shuffled task order and fresh task names, so each
   hit still runs canonicalisation and check remapping.  serve-miss
   sends a fresh canonical taskset every time, more of them than the
   cache holds, so the cache only writes and evicts. *)

open Common

type kind = Hit | Miss

let area = 100
let analyzers = [| "DP"; "GN1"; "GN2" |]
let connections = 2
let window = 8  (* outstanding requests per connection *)
let working_set = 300  (* serve-hit: distinct tasksets, each under three analyzers *)
let variants = 4  (* serve-hit: renamed, reordered spellings of each cache entry *)
let hit_ops_per_s = 7000
let miss_ops_per_s = 2600
let replay_ops = function Hit -> 4000 | Miss -> 4800

type inputs = {
  pool : string array;  (* every distinct request line, id = index *)
  warm : string array;  (* hit: each cache entry once; miss: one probe per set-up *)
  streams : int array array;  (* per connection: pool indices, in send order *)
}

let render ~analyzer ~id ts =
  Server.Protocol.request_line ~analyzer ~fpga_area:area ~id:(Core.Json.Int id) ts

(* [count] tasksets of 4..[n_hi] tasks with pairwise distinct canonical forms *)
let distinct_tasksets rng ~count ~n_hi =
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = count then Array.of_list (List.rev acc)
    else
      let profile = Model.Generator.unconstrained ~n:(Rng.int_incl rng 4 n_hi) in
      let ts = Model.Generator.draw rng { profile with Model.Generator.fpga_area = area } in
      let key = Cache.Canonical.key ~analyzer:Core.Analyzer.dp ~fpga_area:area ts in
      if Hashtbl.mem seen key then go acc k
      else begin
        Hashtbl.add seen key ();
        go (ts :: acc) (k + 1)
      end
  in
  go [] 0

(* the same canonical taskset under another task order and other names *)
let respell rng ts =
  let tasks = Model.Taskset.to_array ts in
  Rng.shuffle rng tasks;
  let tag = Rng.int rng 1_000_000 in
  Model.Taskset.of_list
    (Array.to_list
       (Array.mapi (fun i t -> { t with Model.Task.name = Printf.sprintf "v%d_%d" tag i }) tasks))

let inputs kind ~seed ~seconds ~setups =
  let rng = Rng.create ~seed in
  match kind with
  | Hit ->
    let ops = hit_ops_per_s * seconds in
    let sets = distinct_tasksets rng ~count:working_set ~n_hi:16 in
    let entries = working_set * Array.length analyzers in
    let pool =
      Array.init (entries * variants) (fun id ->
          let e = id / variants in
          render ~analyzer:analyzers.(e mod 3) ~id (respell rng sets.(e / 3)))
    in
    let cycle () =
      let p = Array.init (Array.length pool) Fun.id in
      Rng.shuffle rng p;
      p
    in
    let stream () =
      let per_conn = ops / connections in
      let rec fill acc len = if len >= per_conn then acc else let c = cycle () in fill (c :: acc) (len + Array.length c) in
      Array.sub (Array.concat (List.rev (fill [] 0))) 0 per_conn
    in
    {
      pool;
      warm = Array.init entries (fun e -> pool.(e * variants));
      streams = Array.init connections (fun _ -> stream ());
    }
  | Miss ->
    let ops = miss_ops_per_s * seconds / connections * connections in
    let sets = distinct_tasksets rng ~count:(ops + setups) ~n_hi:8 in
    {
      pool = Array.init ops (fun i -> render ~analyzer:analyzers.(i mod 3) ~id:i sets.(i));
      (* DP, whose decide is a few microseconds: the probe times the
         daemon's start, not one seed's GN2 decide *)
      warm = Array.init setups (fun k -> render ~analyzer:"DP" ~id:(ops + k) sets.(ops + k));
      streams = Array.init connections (fun c -> Array.init (ops / connections) (fun j -> (j * connections) + c));
    }

(* --- the daemon side --- *)

type checker = {
  first : string option array;  (* hit: first reply per pool line *)
  digests : Digest.t array;  (* miss: reply digest per pool line *)
  mutable mismatches : int;
}

let checker kind inputs =
  let n = Array.length inputs.pool in
  {
    first = (match kind with Hit -> Array.make n None | Miss -> [||]);
    digests = (match kind with Hit -> [||] | Miss -> Array.make n "");
    mismatches = 0;
  }

let observe kind chk idx line =
  match kind with
  | Hit -> (
    match chk.first.(idx) with
    | None -> chk.first.(idx) <- Some line
    | Some l -> if not (String.equal l line) then chk.mismatches <- chk.mismatches + 1)
  | Miss -> chk.digests.(idx) <- Digest.string line

let spawn_daemon ~redf ~dir k =
  let sock = Filename.concat dir (Printf.sprintf "serve%d.sock" k) in
  let pid = spawn redf [ "serve"; "--socket"; sock; "-j"; "1" ] ~log:(Filename.concat dir "serve.log") in
  (pid, sock)

(* Spawn a daemon and warm it: serve-hit decides its whole working set
   once, serve-miss answers one probe.  Returns the daemon, the seconds
   from spawn to the last warm-up reply, and the warm-up replies. *)
let set_up kind ~redf ~dir inputs k =
  let t0 = now_ns () in
  let pid, sock = spawn_daemon ~redf ~dir k in
  let replies =
    match kind with
    | Miss -> [| roundtrip sock inputs.warm.(k) |]
    | Hit ->
      let fds = Array.init connections (fun _ -> connect sock) in
      let n = Array.length inputs.warm in
      let parts =
        Array.init connections (fun c ->
            Array.init ((n - c + connections - 1) / connections) (fun j -> inputs.warm.((j * connections) + c)))
      in
      let got = Array.make n "" in
      closed_loop ~window (Array.map2 conn fds parts) ~on_reply:(fun c i ~sent:_ ~received:_ line ->
          got.((i * connections) + c) <- line);
      Array.iter Unix.close fds;
      got
  in
  (pid, sock, seconds_since t0, replies)

type daemon_run = {
  latencies_us : float array;
  wall_s : float;
  cpu_ratio : float;
  rss_mb : float;
  setups_s : float array;
  chk : checker;
  warm_replies : string array;
}

let drive kind ~redf ~dir ~setups inputs =
  (* each set-up but the last is torn down before the next one starts *)
  let runs =
    List.init setups (fun k ->
        let (pid, _, _, _) as r = set_up kind ~redf ~dir inputs k in
        if k < setups - 1 then stop pid;
        r)
  in
  let pid, sock, _, warm_replies = List.nth runs (setups - 1) in
  let chk = checker kind inputs in
  let fds = Array.init connections (fun _ -> connect sock) in
  let conns =
    Array.mapi (fun c fd -> conn fd (Array.map (fun i -> inputs.pool.(i)) inputs.streams.(c))) fds
  in
  let per_conn = Array.length inputs.streams.(0) in
  let latencies_us = Array.make (connections * per_conn) 0.0 in
  let cpu0 = cpu_seconds () and t0 = now_ns () in
  closed_loop ~window conns ~on_reply:(fun c i ~sent ~received line ->
      latencies_us.((c * per_conn) + i) <- ns_between sent received /. 1e3;
      observe kind chk inputs.streams.(c).(i) line);
  let wall_s = seconds_since t0 in
  let cpu_ratio = (cpu_seconds () -. cpu0) /. wall_s in
  Array.iter Unix.close fds;
  let rss_mb = peak_rss_mb (string_of_int pid) in
  stop pid;
  {
    latencies_us;
    wall_s;
    cpu_ratio;
    rss_mb;
    setups_s = Array.of_list (List.map (fun (_, _, s, _) -> s) runs);
    chk;
    warm_replies;
  }

(* --- correctness: the daemon's bytes against in-process engines --- *)

let is_error line =
  match Core.Json.of_string line with
  | Ok json -> Core.Json.member "kind" json <> Some (Core.Json.String "verdict")
  | Error _ -> true

(* returns the number of wrong or missing replies *)
let verify kind inputs run =
  let pool = inputs.pool in
  let n = Array.length pool in
  let chunk = 1024 in
  let bad = ref run.chk.mismatches in
  let expect reply = if is_error reply then incr bad in
  Server.Engine.with_engine ~jobs:2 (fun engine ->
      (match kind with
       | Hit ->
         let reference = Server.Engine.handle_lines engine pool in
         Array.iter expect reference;
         Array.iteri
           (fun i r ->
             match r with
             | Some l when String.equal l reference.(i) -> ()
             | Some _ -> incr bad
             | None -> ())
           run.chk.first;
         Array.iteri
           (fun e l -> if not (String.equal l reference.(e * variants)) then incr bad)
           run.warm_replies
       | Miss ->
         let sent = Array.make n false in
         Array.iter (Array.iter (fun i -> sent.(i) <- true)) inputs.streams;
         let uncached = Server.Engine.create ~cache_size:0 ~jobs:2 () in
         Fun.protect ~finally:(fun () -> Server.Engine.shutdown uncached) (fun () ->
             let c = ref 0 in
             while !c < n do
               let len = min chunk (n - !c) in
               let lines = Array.sub pool !c len in
               let reference = Server.Engine.handle_lines engine lines in
               Array.iteri
                 (fun j r ->
                   let i = !c + j in
                   expect r;
                   if sent.(i) && not (String.equal run.chk.digests.(i) (Digest.string r)) then
                     incr bad)
                 reference;
               (* a deterministic sample, decided again with no cache at all *)
               let sample = Array.init ((len + 15) / 16) (fun k -> lines.(k * 16)) in
               Array.iteri
                 (fun k r -> if not (String.equal r reference.(k * 16)) then incr bad)
                 (Server.Engine.handle_lines uncached sample);
               c := !c + len
             done));
      ());
  !bad

let end_to_end kind ~redf ~dir ~seed ~seconds =
  let setups = match kind with Hit -> 5 | Miss -> 31 in
  let inputs = inputs kind ~seed ~seconds ~setups in
  let run = drive kind ~redf ~dir ~setups inputs in
  let failed = verify kind inputs run in
  let ops = Array.length run.latencies_us in
  {
    attempted = ops;
    failed;
    metrics =
      [
        metric "throughput_ops_s" "1/s" (float_of_int ops /. run.wall_s);
        metric "latency_p50_us" "us" (percentile run.latencies_us 0.50);
        metric "setup_s" "s" (median run.setups_s);
        metric "peak_rss_mb" "MB" run.rss_mb;
      ];
    notes =
      [
        Printf.sprintf "latency p50 %.1f us, p99 %.1f us over n=%d replies (%d connections x window %d)"
          (percentile run.latencies_us 0.50) (percentile run.latencies_us 0.99) ops connections window;
        Printf.sprintf "setup_s is the median of %d daemon set-ups: %s" setups
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") run.setups_s)));
        Printf.sprintf "generator cpu/wall %.3f over %.2f s" run.cpu_ratio run.wall_s;
      ];
  }

(* --- traced replay --- *)

(* Replays the first [replay_ops kind] requests in the batches the
   window produces (one window from each connection), through an
   in-process engine (the root span, [Server.Engine.handle_lines]) and,
   on the same inputs, through each layer's public function. *)
let replay kind inputs ~spans ~layers =
  let batch_size = connections * window in
  let per_conn = min (replay_ops kind / connections) (Array.length inputs.streams.(0)) in
  let nbatches = per_conn / window in
  let batch b c = Array.init window (fun j -> inputs.pool.(inputs.streams.(c).((b * window) + j))) in
  let warm = match kind with Hit -> inputs.warm | Miss -> [| inputs.warm.(0) |] in
  let engine = Server.Engine.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Server.Engine.shutdown engine) @@ fun () ->
  ignore (Server.Engine.handle_lines engine warm);
  let mirror = Cache.Verdicts.create ~shards:8 ~capacity:4096 () in
  let parse line =
    match Server.Protocol.parse line with Ok r -> r | Error (_, msg) -> failf "bad request: %s" msg
  in
  let decide_groups ~decide reqs =
    (* group by analyzer, in first-occurrence order, as the engine does *)
    let groups = ref [] in
    Array.iteri
      (fun i (r : Server.Protocol.request) ->
        let name = r.Server.Protocol.analyzer.Core.Analyzer.name in
        match List.assoc_opt name !groups with
        | Some l -> l := i :: !l
        | None -> groups := (name, ref [ i ]) :: !groups)
      reqs;
    let out = Array.make (Array.length reqs) None in
    List.iter
      (fun (_, idx) ->
        let idx = Array.of_list (List.rev !idx) in
        let a = reqs.(idx.(0)).Server.Protocol.analyzer in
        let vs = decide a (Array.map (fun i -> reqs.(i).Server.Protocol.taskset) idx) in
        Array.iteri (fun j i -> out.(i) <- Some vs.(j)) idx)
      (List.rev !groups);
    Array.map Option.get out
  in
  ignore
    (decide_groups
       ~decide:(fun a tss -> Cache.Verdicts.decide_all mirror ~analyzer:a ~fpga_area:area tss)
       (Array.map parse warm));
  let stats0 = Cache.Verdicts.stats mirror in
  let parent = ref (-1) and req = ref 0 in
  let traced = Hashtbl.create 4 in
  let traced_of (a : Core.Analyzer.t) =
    match Hashtbl.find_opt traced a.Core.Analyzer.name with
    | Some t -> t
    | None ->
      let t = Spans.traced_analyzer spans ~parent ~req a in
      Hashtbl.add traced a.Core.Analyzer.name t;
      t
  in
  let framers = Array.init connections (fun _ -> Server.Framing.create ()) in
  let mismatches = ref 0 in
  let t0 = now_ns () in
  for b = 0 to nbatches - 1 do
    let parts = Array.init connections (batch b) in
    let lines = Array.concat (Array.to_list parts) in
    if layers then
      Array.iteri
        (fun c part ->
          let bytes = String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") part)) in
          ignore
            (Spans.record spans ~name:"server.framing.feed" ~parent:(-1) ~req:b (fun () ->
                 Server.Framing.feed framers.(c) ~now:0.0 bytes)))
        parts;
    let root = Spans.fresh_id spans in
    let responses =
      Spans.record spans ~id:root ~name:"server.engine.handle_lines" ~parent:(-1) ~req:b (fun () ->
          Server.Engine.handle_lines engine lines)
    in
    if layers then begin
      let reqs =
        Array.mapi
          (fun i line ->
            Spans.record spans ~name:"server.protocol.parse" ~parent:root ~req:((b * batch_size) + i)
              (fun () -> parse line))
          lines
      in
      let verdicts =
        decide_groups reqs ~decide:(fun a tss ->
            let v = Spans.fresh_id spans in
            let cols =
              Spans.record spans ~name:"model.columns.of_taskset" ~parent:v ~req:b (fun () ->
                  Array.map Model.Taskset.Columns.of_taskset tss)
            in
            Spans.record spans ~name:"cache.canonical.key" ~parent:v ~req:b (fun () ->
                Array.iter
                  (fun c ->
                    ignore (Sys.opaque_identity (Cache.Canonical.key_cols ~analyzer:a ~fpga_area:area c));
                    ignore (Sys.opaque_identity (Cache.Canonical.order_cols c)))
                  cols);
            parent := v;
            req := b;
            Spans.record spans ~id:v ~name:"cache.verdicts.decide_all" ~parent:root ~req:b (fun () ->
                Cache.Verdicts.decide_all mirror ~analyzer:(traced_of a) ~fpga_area:area tss))
      in
      Array.iteri
        (fun i r ->
          let line =
            Spans.record spans ~name:"server.protocol.encode" ~parent:root ~req:((b * batch_size) + i)
              (fun () -> Server.Protocol.response r verdicts.(i))
          in
          if not (String.equal line responses.(i)) then incr mismatches)
        reqs
    end
  done;
  let wall = seconds_since t0 in
  let s1 = Cache.Verdicts.stats mirror in
  let hits = s1.Cache.Lru.hits - stats0.Cache.Lru.hits
  and misses = s1.Cache.Lru.misses - stats0.Cache.Lru.misses in
  (wall, nbatches * batch_size, hits, misses, s1.Cache.Lru.evictions - stats0.Cache.Lru.evictions, !mismatches)

let traced kind ~redf ~dir ~seed ~seconds ~spans_path =
  let inputs = inputs kind ~seed ~seconds ~setups:1 in
  let run = drive kind ~redf ~dir ~setups:1 inputs in
  let failed = verify kind inputs run in
  let throughput = float_of_int (Array.length run.latencies_us) /. run.wall_s in
  let root_only = Spans.create () in
  let bare_wall, _, _, _, _, _ = replay kind inputs ~spans:root_only ~layers:false in
  let spans = Spans.create () in
  let wall, ops, hits, misses, evictions, mismatches = replay kind inputs ~spans ~layers:true in
  Spans.write_json spans spans_path;
  let self = Spans.self_times spans and total = Spans.totals spans in
  let per_op tbl name = fst (Spans.lookup tbl name) /. 1e3 /. float_of_int ops in
  let handle_lines_us = per_op total "server.engine.handle_lines" in
  let hit_ratio = Common.mean_or_zero (float_of_int hits) (hits + misses) in
  let layer_metrics =
    [
      metric "server.framing.feed_us" "us" (per_op self "server.framing.feed");
      metric "server.protocol.parse_us" "us" (per_op self "server.protocol.parse");
      metric "model.columns.of_taskset_us" "us" (per_op self "model.columns.of_taskset");
      metric "cache.canonical.key_us" "us" (per_op self "cache.canonical.key");
      metric "cache.verdicts.self_us" "us" (per_op self "cache.verdicts.decide_all");
      metric "cache.verdicts.hit_ratio" "ratio" hit_ratio;
      metric "cache.verdicts.evictions" "count" (float_of_int evictions);
      metric "server.protocol.encode_us" "us" (per_op self "server.protocol.encode");
      metric "server.engine.handle_lines_us" "us" handle_lines_us;
      metric "server.engine.unaccounted_us" "us" (per_op self "server.engine.handle_lines");
      metric "server.loop.residual_us" "us" ((1e6 /. throughput) -. handle_lines_us);
      metric "loadgen.cpu_ratio" "ratio" run.cpu_ratio;
      metric "loadgen.latency_p99_us" "us" (percentile run.latencies_us 0.99);
      metric "trace.overhead_ratio" "ratio" (wall /. bare_wall);
    ]
    @ Spans.analyzer_metrics spans
  in
  let decides = Spans.counted spans "core.analyzer.dp" + Spans.counted spans "core.analyzer.gn1"
                + Spans.counted spans "core.analyzer.gn2" in
  let guards =
    (match kind with
     | Hit ->
       [
         (hit_ratio >= 0.99, Printf.sprintf "serve-hit: verdict-cache hit ratio %.4f >= 0.99" hit_ratio);
         (decides = 0, Printf.sprintf "serve-hit: %d analyzer decides after warm-up (want 0)" decides);
       ]
     | Miss ->
       [
         (hits = 0, Printf.sprintf "serve-miss: %d verdict-cache hits (want 0)" hits);
         (evictions > 0, Printf.sprintf "serve-miss: %d evictions (want > 0)" evictions);
       ])
    @ [ (run.cpu_ratio < 0.8, Printf.sprintf "generator cpu/wall %.3f < 0.8" run.cpu_ratio) ]
  in
  ( {
      attempted = Array.length run.latencies_us + ops;
      failed = failed + mismatches;
      metrics = layer_metrics;
      notes = [ Printf.sprintf "replayed %d requests in batches of %d" ops (connections * window) ];
    },
    guards )
