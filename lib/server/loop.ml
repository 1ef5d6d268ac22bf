type limits = { max_pending : int; max_inflight : int; max_buffered_bytes : int }

let default_limits = { max_pending = 1024; max_inflight = 4096; max_buffered_bytes = 8 * 1024 * 1024 }

(* error totals are functions of the input stream alone; connection,
   shed and timeout counts depend on arrival timing *)
let m_errors = Obs.Counter.make "server.errors"
let m_timeouts = Obs.Counter.make ~det:false "server.timeouts"
let m_connections = Obs.Counter.make ~det:false "server.connections"
let m_active = Obs.Gauge.make "server.active_connections"
let m_shed = Obs.Counter.make ~det:false "server.shed"

(* --- framing items to protocol responses --- *)

let too_large_message = "request too large: line exceeds 16 MiB"
let timeout_message = "request timeout: incomplete request line dropped"

(* a request line to evaluate, or a response line formed without the
   service (framing error, shed) *)
type step = Eval of string | Emit of string

(* the order of the steps is the response order: an [Emit] for a
   dropped line sits exactly where that line sat in the stream *)
let plan items =
  List.map
    (fun (item : Framing.item) ->
      match item with
      | Framing.Line line -> Eval line
      | Framing.Too_large _ ->
        Obs.Counter.incr m_errors;
        Emit (Protocol.error_response too_large_message)
      | Framing.Timed_out ->
        Obs.Counter.incr m_timeouts;
        Emit (Protocol.error_response timeout_message))
    items

(* --- listeners --- *)

type socket = { lfd : Unix.file_descr; tcp : bool; cleanup : unit -> unit }

(* a stdio endpoint is pre-connected: it yields its one connection when
   the loop starts, over fds the caller owns *)
type listener = Socket of socket | Stdio of { input : Unix.file_descr; output : Unix.file_descr }

let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (path ^ ": exists and is not a socket; refusing to replace it")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let unix_listener ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  Unix.set_nonblock sock;
  remove_stale_socket path;
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  Socket
    {
      lfd = sock;
      tcp = false;
      cleanup =
        (fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          try Unix.unlink path with Unix.Unix_error _ -> ());
    }

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ ->
    if String.lowercase_ascii host = "localhost" then Unix.inet_addr_loopback
    else failwith (host ^ ": expected a numeric IP address or \"localhost\"")

let tcp_listener ~host ~port =
  let inet = resolve_host host in
  let domain = if Unix.is_inet6_addr inet then Unix.PF_INET6 else Unix.PF_INET in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  Unix.set_nonblock sock;
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (inet, port));
  Unix.listen sock 64;
  Socket
    { lfd = sock; tcp = true; cleanup = (fun () -> try Unix.close sock with Unix.Unix_error _ -> ()) }

let stdio_listener ~input ~output = Stdio { input; output }

let bound_port = function
  | Socket { lfd; tcp = true; _ } -> (
    match Unix.getsockname lfd with Unix.ADDR_INET (_, port) -> port | Unix.ADDR_UNIX _ -> assert false)
  | Socket _ | Stdio _ -> invalid_arg "Loop.bound_port: not a TCP listener"

(* --- services --- *)

(* what the loop needs to know about the thing it serves: the analysis
   engine and the admission daemon both fit this shape *)
type service = {
  handle_lines : string array -> string array;  (* request order, one reply each *)
  stop_requested : unit -> bool;
  shed_response : string -> string;
  is_mutation : string -> bool;
      (* mutation lines get 2x [max_inflight] headroom before shedding:
         under overload the daemon keeps admitting while what-if/query
         traffic is shed first *)
}

(* --- connections --- *)

type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;  (* [rfd] itself for a socket *)
  owned : bool;  (* closed by the loop: accepted sockets, not stdio *)
  framing : Framing.t;
  steps : step Queue.t;  (* pending work, in arrival order *)
  mutable queued : int;  (* Eval steps among [steps] (read-eligibility bound) *)
  mutable pending : string;  (* response bytes being written *)
  mutable pending_off : int;
  out : Buffer.t;  (* response bytes queued behind [pending] *)
  mutable input_closed : bool;  (* EOF seen, or draining: no more reads *)
  mutable dead : bool;  (* fatal I/O error: close without flushing *)
  mutable last_activity : float;  (* last read progress or write progress *)
}

let buffered_bytes c = String.length c.pending - c.pending_off + Buffer.length c.out
let finished c = c.dead || (c.input_closed && Queue.is_empty c.steps && buffered_bytes c = 0)
let close_conn c = if c.owned then try Unix.close c.rfd with Unix.Unix_error _ -> ()

(* one write per call, so a signal interrupting a blocking (stdio)
   write can never make a retry repeat bytes already written *)
let flush c =
  let rec go () =
    if c.pending_off >= String.length c.pending then begin
      if Buffer.length c.out > 0 then begin
        c.pending <- Buffer.contents c.out;
        c.pending_off <- 0;
        Buffer.clear c.out;
        go ()
      end
    end
    else
      match
        Unix.single_write_substring c.wfd c.pending c.pending_off
          (String.length c.pending - c.pending_off)
      with
      | n ->
        c.pending_off <- c.pending_off + n;
        if n > 0 then c.last_activity <- Unix.gettimeofday ();
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> c.dead <- true
  in
  if not c.dead then go ()

(* --- the loop --- *)

let serve_service service ?timeout ?idle_timeout ?(limits = default_limits) listeners =
  (* a client vanishing mid-write must cost its connection, not the
     process: flush/read map EPIPE/ECONNRESET to [dead], but only if
     the SIGPIPE the failed write raises first doesn't kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sockets = List.filter_map (function Socket s -> Some s | Stdio _ -> None) listeners in
  let conns = ref [] in (* newest first; batch composition only, never per-conn bytes *)
  let inflight = ref 0 in (* admitted Eval steps not yet answered, across conns *)
  let chunk = Bytes.create 65536 in
  let open_conn ~owned rfd wfd =
    Obs.Counter.incr m_connections;
    conns :=
      {
        rfd;
        wfd;
        owned;
        framing = Framing.create ?timeout ();
        steps = Queue.create ();
        queued = 0;
        pending = "";
        pending_off = 0;
        out = Buffer.create 1024;
        input_closed = false;
        dead = false;
        last_activity = Unix.gettimeofday ();
      }
      :: !conns;
    Obs.Gauge.set m_active (List.length !conns)
  in
  (* stdio fds stay blocking: O_NONBLOCK would leak to every process
     sharing the file description.  Reads only follow a [select], and
     a blocking write merely stalls the loop until the reader catches
     up *)
  List.iter
    (function Stdio { input; output } -> open_conn ~owned:false input output | Socket _ -> ())
    listeners;
  let enqueue c items =
    List.iter
      (fun step ->
        match step with
        (* a mutation rides until twice the bound; below the bound no
           line is asked whether it is one *)
        | Eval line
          when !inflight >= limits.max_inflight
               && (!inflight >= 2 * limits.max_inflight || not (service.is_mutation line)) ->
          Obs.Counter.incr m_shed;
          Queue.add (Emit (service.shed_response line)) c.steps
        | Eval _ as step ->
          incr inflight;
          c.queued <- c.queued + 1;
          Queue.add step c.steps
        | Emit _ as step -> Queue.add step c.steps)
      (plan items)
  in
  let accept_ready l =
    let rec go () =
      match Unix.accept ~cloexec:true l.lfd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
      | fd, _ ->
        Unix.set_nonblock fd;
        if l.tcp then (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        open_conn ~owned:true fd fd;
        go ()
    in
    go ()
  in
  let read_conn c =
    match Unix.read c.rfd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> c.dead <- true
    | 0 ->
      c.input_closed <- true;
      enqueue c (Framing.finish c.framing)
    | n ->
      let now = Unix.gettimeofday () in
      c.last_activity <- now;
      enqueue c (Framing.feed c.framing ~now (Bytes.sub_string chunk 0 n))
  in
  (* evaluate this tick's ready steps of all connections as one pool
     batch, stitching responses back per connection in arrival order *)
  let evaluate () =
    let popped =
      List.filter_map
        (fun c ->
          if Queue.is_empty c.steps then None
          else begin
            let steps = ref [] in
            let evals = ref 0 in
            while (not (Queue.is_empty c.steps)) && !evals < limits.max_pending do
              let s = Queue.pop c.steps in
              (match s with Eval _ -> incr evals | Emit _ -> ());
              steps := s :: !steps
            done;
            Some (c, List.rev !steps)
          end)
        (List.rev !conns)
    in
    let batch = ref [] in
    List.iter
      (fun (_, steps) ->
        List.iter (function Eval line -> batch := line :: !batch | Emit _ -> ()) steps)
      popped;
    let responses =
      match Array.of_list (List.rev !batch) with
      | [||] -> [||]
      | batch -> service.handle_lines batch
    in
    let idx = ref 0 in
    List.iter
      (fun (c, steps) ->
        List.iter
          (fun s ->
            let response =
              match s with
              | Eval _ ->
                let r = responses.(!idx) in
                incr idx;
                decr inflight;
                c.queued <- c.queued - 1;
                r
              | Emit r -> r
            in
            Buffer.add_string c.out response;
            Buffer.add_char c.out '\n')
          steps)
      popped
  in
  (* an idle connection holds an fd (and, against a finite [select]
     set, a seat) forever; with [--idle-timeout] the loop closes any
     connection that has been completely quiet — nothing read, nothing
     queued, nothing left to write — for longer than the limit.
     Checked once per tick, so the effective timeout is [idle_timeout]
     plus up to one tick (<= 0.5 s). *)
  let kill_idle now =
    match idle_timeout with
    | None -> ()
    | Some limit ->
      List.iter
        (fun c ->
          if
            (not c.dead) && (not c.input_closed)
            && Queue.is_empty c.steps
            && buffered_bytes c = 0
            && now -. c.last_activity > limit
          then c.dead <- true)
        !conns
  in
  let reap () =
    let gone, live = List.partition finished !conns in
    if gone <> [] then begin
      (* a dead connection's unanswered lines give their in-flight
         budget back *)
      List.iter
        (fun c ->
          inflight := !inflight - c.queued;
          close_conn c)
        gone;
      conns := live;
      Obs.Gauge.set m_active (List.length live)
    end
  in
  let readable_conn c =
    (not c.dead) && (not c.input_closed) && c.queued < limits.max_pending
    && buffered_bytes c <= limits.max_buffered_bytes
  in
  (* the loop runs until stop is requested, or until no listener can
     accept and every connection (stdio's included) is done *)
  let rec loop () =
    if (not (service.stop_requested ())) && (sockets <> [] || !conns <> []) then begin
      let now = Unix.gettimeofday () in
      let tick =
        if List.exists (fun c -> not (Queue.is_empty c.steps)) !conns then 0.0
        else
          List.fold_left
            (fun acc c ->
              match Framing.deadline c.framing with
              | None -> acc
              | Some d -> Float.min acc (Float.max 0.0 (d -. now)))
            0.5 !conns
      in
      let listener_fds = List.map (fun l -> l.lfd) sockets in
      let read_fds =
        listener_fds @ List.filter_map (fun c -> if readable_conn c then Some c.rfd else None) !conns
      in
      let write_fds =
        List.filter_map (fun c -> if (not c.dead) && buffered_bytes c > 0 then Some c.wfd else None) !conns
      in
      (match Unix.select read_fds write_fds [] tick with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
         List.iter (fun l -> if List.memq l.lfd readable then accept_ready l) sockets;
         List.iter (fun c -> if List.memq c.rfd readable then read_conn c) !conns;
         let now = Unix.gettimeofday () in
         List.iter
           (fun c -> if not c.dead then enqueue c (Framing.check_deadline c.framing ~now))
           !conns;
         evaluate ();
         List.iter
           (fun c -> if List.memq c.wfd writable || buffered_bytes c > 0 then flush c)
           !conns;
         kill_idle (Unix.gettimeofday ());
         reap ());
      loop ()
    end
  in
  let drain () =
    (* answer everything already framed; partial lines are dropped *)
    List.iter (fun c -> c.input_closed <- true) !conns;
    while List.exists (fun c -> not (Queue.is_empty c.steps)) !conns do
      evaluate ()
    done;
    let flush_by = Unix.gettimeofday () +. 5.0 in
    let rec flush_all () =
      List.iter flush !conns;
      let blocked = List.filter (fun c -> (not c.dead) && buffered_bytes c > 0) !conns in
      if blocked <> [] && Unix.gettimeofday () < flush_by then begin
        (match Unix.select [] (List.map (fun c -> c.wfd) blocked) [] 0.1 with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | _ -> ());
        flush_all ()
      end
    in
    flush_all ()
  in
  let close_all () =
    List.iter close_conn !conns;
    conns := [];
    Obs.Gauge.set m_active 0;
    List.iter (fun l -> l.cleanup ()) sockets
  in
  match
    loop ();
    drain ()
  with
  | () -> close_all ()
  | exception e ->
    (* a service that raised is never called again: its queued lines
       stay unanswered and the connections close as if the process
       had died, which is what a crash-injecting daemon relies on *)
    let bt = Printexc.get_raw_backtrace () in
    close_all ();
    Printexc.raise_with_backtrace e bt
