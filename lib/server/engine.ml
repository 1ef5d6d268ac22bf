type t = {
  cache : Cache.Verdicts.t;
  pool : Parallel.Pool.t;
  stop : bool Atomic.t;
}

(* request/error totals are functions of the input stream alone;
   batching counts depend on arrival timing *)
let m_requests = Obs.Counter.make "server.requests"
let m_errors = Obs.Counter.make "server.errors"
let m_batches = Obs.Counter.make ~det:false "server.batches"
let request_timer = Obs.Timer.make "server.request"

let create ?(cache_size = 4096) ?(shards = 8) ~jobs () =
  {
    cache = Cache.Verdicts.create ~shards ~capacity:cache_size ();
    pool = Parallel.Pool.create ~jobs:(Parallel.resolve_jobs jobs);
    stop = Atomic.make false;
  }

let shutdown t = Parallel.Pool.shutdown t.pool

let with_engine ?cache_size ?shards ~jobs f =
  let t = create ?cache_size ?shards ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let cache_stats t = Cache.Verdicts.stats t.cache
let request_stop t = Atomic.set t.stop true
let stop_requested t = Atomic.get t.stop

let handle_line t line =
  Obs.Counter.incr m_requests;
  match Protocol.parse line with
  | Error (id, msg) ->
    Obs.Counter.incr m_errors;
    Protocol.error_response ?id msg
  | Ok req -> (
    match
      Obs.Timer.time request_timer (fun () ->
          Cache.Verdicts.decide t.cache ~analyzer:req.analyzer ~fpga_area:req.fpga_area
            req.Protocol.taskset)
    with
    | verdict -> Protocol.response req verdict
    | exception e ->
      Obs.Counter.incr m_errors;
      Protocol.error_response ?id:req.Protocol.id ("internal error: " ^ Printexc.to_string e))

(* Batches fan out over the analyzers' batch paths: parse in parallel,
   group the well-formed requests by (analyzer name, version, device
   area), split each group into per-worker chunks, and push every chunk
   through Cache.Verdicts.decide_all — so duplicate tasksets inside a
   chunk are decided once and per-taskset setup is amortized.  Response
   bytes and det counter totals are exactly the per-line path's: parse
   errors answer in place, and a chunk whose batch decision raises is
   replayed request-by-request so the failing request alone gets the
   "internal error" response. *)
let handle_lines t lines =
  Obs.Counter.incr m_batches;
  let parsed =
    Parallel.Pool.map t.pool
      (fun line ->
        Obs.Counter.incr m_requests;
        match Protocol.parse line with
        | Error (id, msg) ->
          Obs.Counter.incr m_errors;
          Either.Left (Protocol.error_response ?id msg)
        | Ok req -> Either.Right req)
      lines
  in
  let responses = Array.make (Array.length lines) "" in
  let groups = Hashtbl.create 8 in
  let group_order = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Either.Left r -> responses.(i) <- r
      | Either.Right (req : Protocol.request) ->
        let key =
          req.Protocol.analyzer.Core.Analyzer.name ^ "\x00"
          ^ req.Protocol.analyzer.Core.Analyzer.version ^ "\x00"
          ^ string_of_int req.Protocol.fpga_area
        in
        (match Hashtbl.find_opt groups key with
         | Some l -> l := (req, i) :: !l
         | None ->
           Hashtbl.add groups key (ref [ (req, i) ]);
           group_order := key :: !group_order))
    parsed;
  let jobs = max 1 (Parallel.Pool.jobs t.pool) in
  let chunks =
    List.concat_map
      (fun key ->
        let items = Array.of_list (List.rev !(Hashtbl.find groups key)) in
        let g = Array.length items in
        let chunk_size = max 1 ((g + jobs - 1) / jobs) in
        let nchunks = (g + chunk_size - 1) / chunk_size in
        List.init nchunks (fun c ->
            Array.sub items (c * chunk_size) (min chunk_size (g - (c * chunk_size)))))
      (List.rev !group_order)
  in
  let answer_one (req : Protocol.request) =
    match
      Obs.Timer.time request_timer (fun () ->
          Cache.Verdicts.decide t.cache ~analyzer:req.Protocol.analyzer
            ~fpga_area:req.Protocol.fpga_area req.Protocol.taskset)
    with
    | verdict -> Protocol.response req verdict
    | exception e ->
      Obs.Counter.incr m_errors;
      Protocol.error_response ?id:req.Protocol.id ("internal error: " ^ Printexc.to_string e)
  in
  let chunk_results =
    Parallel.Pool.map t.pool
      (fun chunk ->
        let req0, _ = chunk.(0) in
        match
          Obs.Timer.time request_timer (fun () ->
              Cache.Verdicts.decide_all t.cache ~analyzer:req0.Protocol.analyzer
                ~fpga_area:req0.Protocol.fpga_area
                (Array.map (fun ((r : Protocol.request), _) -> r.Protocol.taskset) chunk))
        with
        | verdicts -> Array.mapi (fun j (req, _) -> Protocol.response req verdicts.(j)) chunk
        | exception _ -> Array.map (fun (req, _) -> answer_one req) chunk)
      (Array.of_list chunks)
  in
  List.iteri
    (fun c chunk ->
      Array.iteri (fun j (_, i) -> responses.(i) <- chunk_results.(c).(j)) chunk)
    chunks;
  responses

(* --- client (redf batch --connect / bench-serve) --- *)

let string_of_addr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (host, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port

(* one read into [received]; false at end of stream *)
let receive sock chunk received =
  match Unix.read sock chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes received chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let response_lines received =
  String.split_on_char '\n' (Buffer.contents received)
  |> List.filter (fun l -> String.trim l <> "")
  |> Array.of_list

(* Connect to [addr], pipeline [lines], then hand the socket to [k]
   with the response bytes received so far.  Sending interleaves with
   reading, so a batch of any size cannot deadlock on socket buffers;
   a server that closes or resets the connection ends the sending
   early.  The socket is closed when [k] returns. *)
let connect_and_send ~addr lines k =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match addr with
   | Unix.ADDR_INET _ -> (
     (* latency matters more than segment count for request/response *)
     try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
   | Unix.ADDR_UNIX _ -> ());
  match Unix.connect sock addr with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "%s: %s" (string_of_addr addr) (Unix.error_message e))
  | () ->
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        let payload = String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines)) in
        let received = Buffer.create 4096 in
        let chunk = Bytes.create 65536 in
        let rec send off =
          if off < String.length payload then
            match Unix.select [ sock ] [ sock ] [] (-1.0) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
            | readable, writable, _ ->
              if readable = [] || receive sock chunk received then
                send
                  (if writable = [] then off
                   else
                     match
                       Unix.single_write_substring sock payload off (String.length payload - off)
                     with
                     | n -> off + n
                     | exception Unix.Unix_error (Unix.EINTR, _, _) -> off)
        in
        (try send 0 with Unix.Unix_error _ -> ());
        Ok (k sock chunk received))

let client_roundtrip_addr ~addr lines =
  connect_and_send ~addr lines (fun sock chunk received ->
      (try
         Unix.shutdown sock Unix.SHUTDOWN_SEND;
         while receive sock chunk received do
           ()
         done
       with Unix.Unix_error _ -> ());
      response_lines received)

(* --- resilient client --- *)

(* One response line per request line, in order: if a roundtrip comes
   back short, the prefix of responses is good and exactly the
   unanswered suffix of requests needs re-sending.  Safe against the
   admission daemon because mutations carry request ids and the daemon
   answers a replayed id from its journal instead of re-applying —
   the client-side half of exactly-once. *)
let client_roundtrip_retry ~addr ?(retries = 0) ?(backoff_ms = 50) ?(seed = 1) lines =
  let total = Array.length lines in
  let rng = Rng.create ~seed in
  let answered = ref [] in  (* response arrays, newest first *)
  let answered_count () = List.fold_left (fun n r -> n + Array.length r) 0 !answered in
  let assemble () = Array.concat (List.rev !answered) in
  let rec attempt n =
    let from = answered_count () in
    let remaining = Array.sub lines from (total - from) in
    let short_by outcome =
      match outcome with
      | Error e -> e
      | Ok got -> Printf.sprintf "connection lost after %d of %d responses" (from + Array.length got) total
    in
    let outcome = client_roundtrip_addr ~addr remaining in
    (match outcome with
    | Ok responses when Array.length responses > 0 -> answered := responses :: !answered
    | Ok _ | Error _ -> ());
    if answered_count () >= total then Ok (assemble ())
    else if n >= retries then
      Error
        (Printf.sprintf "%s%s" (short_by outcome)
           (if retries > 0 then Printf.sprintf " (gave up after %d retries)" retries else ""))
    else begin
      (* exponential backoff, jittered so a fleet of retrying clients
         doesn't re-dogpile the server in lockstep *)
      let base = backoff_ms * (1 lsl min n 10) in
      let jitter = Rng.int rng (max 1 base) in
      Unix.sleepf (float_of_int (base + jitter) /. 1000.0);
      attempt (n + 1)
    end
  in
  attempt 0

(* Send everything, read the expected responses, then *hold* the
   connection open (no shutdown, no traffic) until the server closes
   it or [hold] seconds pass — the probe for [--idle-timeout]. *)
let client_hold ~addr ~hold lines =
  connect_and_send ~addr lines (fun sock chunk received ->
      let deadline = Unix.gettimeofday () +. hold in
      let rec wait () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then `Hold_expired
        else
          match Unix.select [ sock ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | [], _, _ -> `Hold_expired
          | _ -> (
            match receive sock chunk received with
            | true -> wait ()
            | false | (exception Unix.Unix_error _) -> `Closed_by_server)
      in
      let ending = wait () in
      (response_lines received, ending))
