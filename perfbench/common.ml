(* Shared plumbing of the benchmark: the monotonic clock, summary
   statistics, child processes, and the closed-loop request generator
   that drives a daemon over its Unix socket. *)

let now_ns () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let seconds_since t0 = ns_between t0 (now_ns ()) /. 1e9

exception Bench_failure of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* --- statistics --- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least [p] of the samples
   at or below it *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Python's statistics.quantiles(data, n=4) (its default 'exclusive'
   method), so the steadiness report and an external check agree. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  List.init 3 (fun k ->
      let i = k + 1 in
      let j = min (ld - 1) (max 1 (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n)

let mean_or_zero total count = if count = 0 then 0.0 else total /. float_of_int count

(* --- files --- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = (Unix.stat path).Unix.st_size

(* VmHWM (peak resident set) of a live process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  match line with
  | None -> failf "%s has no VmHWM line" path
  | Some l ->
    let kb = Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id in
    float_of_int kb /. 1024.0

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- child processes --- *)

let children : int list ref = ref []

(* Start a child with stdin and stdout on /dev/null and stderr appended
   to [log]. *)
let spawn prog args ~log =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null null err)
  in
  children := pid :: !children;
  pid

(* Wait for [pid] to exit; SIGKILL it after [timeout] seconds. *)
let reap ?(timeout = 10.0) pid =
  let t0 = now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if seconds_since t0 > timeout then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (fun p -> p <> pid) !children;
  status

(* Every child still running gets SIGTERM (a nested benchmark then
   stops its own daemons), then SIGKILL if it lingers, and is reaped. *)
let stop_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (reap ~timeout:5.0 pid))
    !children

let () = at_exit stop_children

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failf "daemon %d exited with status %d" pid n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> failf "daemon %d died on signal %d" pid n

(* Run a command to completion and return its standard output. *)
let run_capture prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null w null)
  in
  children := pid :: !children;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () ->
      In_channel.input_all (Unix.in_channel_of_descr r))
  in
  match reap ~timeout:120.0 pid with
  | Unix.WEXITED 0 -> out
  | _ -> failf "%s %s failed" prog (String.concat " " args)

let connect ?(timeout = 20.0) path =
  let t0 = now_ns () in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if seconds_since t0 > timeout then failf "no daemon listening on %s" path;
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

(* --- closed-loop generator --- *)

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

type conn = {
  fd : Unix.file_descr;
  lines : string array;  (* requests, each ending in '\n' *)
  sent_at : int64 array;
  mutable sent : int;
  mutable got : int;
  partial : Buffer.t;
}

let conn fd lines =
  {
    fd;
    lines = Array.map (fun l -> l ^ "\n") lines;
    sent_at = Array.make (Array.length lines) 0L;
    sent = 0;
    got = 0;
    partial = Buffer.create 4096;
  }

(* Closed loop in rounds: every connection writes its next [window]
   requests in one write, and the next round starts once every reply of
   this round is in.  The daemon's select loop therefore sees the same
   batches on every run instead of whatever fragments a sliding window
   happens to leave in the socket.  Replies come back in request order
   per connection, so reply [i] answers request [i]; [on_reply c i
   ~sent ~received line] sees every reply.  Fails if a daemon goes quiet for
   [stall] seconds or closes a connection early. *)
let closed_loop ?(stall = 60.0) ~window conns ~on_reply =
  let chunk = Bytes.create 65536 in
  (* all windows are rendered first and written back to back, so the
     daemon's next select almost always finds the whole round *)
  let send_round () =
    let payloads =
      Array.map
        (fun c ->
          let n = min window (Array.length c.lines - c.sent) in
          let buf = Buffer.create (n * 2048) in
          for i = c.sent to c.sent + n - 1 do Buffer.add_string buf c.lines.(i) done;
          (n, Buffer.contents buf))
        conns
    in
    let t = now_ns () in
    Array.iteri
      (fun k c ->
        let n, payload = payloads.(k) in
        if n > 0 then begin
          Array.fill c.sent_at c.sent n t;
          c.sent <- c.sent + n;
          write_all c.fd payload 0
        end)
      conns
  in
  let receive k c =
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    let t = now_ns () in
    if n = 0 then
      failf "daemon closed the connection with %d replies missing" (Array.length c.lines - c.got);
    let s = Bytes.sub_string chunk 0 n in
    let rec lines start =
      match String.index_from_opt s start '\n' with
      | None -> Buffer.add_substring c.partial s start (n - start)
      | Some e ->
        let line =
          if Buffer.length c.partial = 0 then String.sub s start (e - start)
          else begin
            Buffer.add_substring c.partial s start (e - start);
            let l = Buffer.contents c.partial in
            Buffer.clear c.partial;
            l
          end
        in
        on_reply k c.got ~sent:c.sent_at.(c.got) ~received:t line;
        c.got <- c.got + 1;
        lines (e + 1)
    in
    lines 0
  in
  let rec await () =
    let waiting = List.filter (fun c -> c.got < c.sent) (Array.to_list conns) in
    if waiting <> [] then begin
      match Unix.select (List.map (fun c -> c.fd) waiting) [] [] stall with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      | [], _, _ -> failf "daemon stalled: no reply for %.0f s" stall
      | ready, _, _ ->
        Array.iteri (fun k c -> if c.got < c.sent && List.memq c.fd ready then receive k c) conns;
        await ()
    end
  in
  let rec rounds () =
    if Array.exists (fun c -> c.sent < Array.length c.lines) conns then begin
      send_round ();
      await ();
      rounds ()
    end
  in
  rounds ()

(* One request, one reply, on a fresh connection. *)
let roundtrip path line =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let reply = ref "" in
      closed_loop ~window:1 [| conn fd [| line |] |] ~on_reply:(fun _ _ ~sent:_ ~received:_ l ->
          reply := l);
      !reply)

(* --- results --- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;  (* error replies + reference mismatches + missing replies *)
  metrics : metric list;
  notes : string list;  (* human-readable lines: sample counts, guards *)
}
