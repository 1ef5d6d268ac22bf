(* The registry is one mutex-protected table of named metrics; the
   metrics themselves are lock-free (counters, gauges) or carry their
   own mutex (timers), so registration is the only globally serialized
   operation and updates never contend across metrics.  Everything is
   gated on [enabled_flag]: the disabled path is one atomic load. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type timer_state = {
  tmutex : Mutex.t;
  mutable tcount : int;
  mutable tsum_ns : int;
  mutable tmin_ns : int; (* meaningful only when tcount > 0 *)
  mutable tmax_ns : int;
}

type metric =
  | M_counter of { det : bool; v : int Atomic.t }
  | M_gauge of { det : bool; v : int Atomic.t }
  | M_timer of timer_state

let registry : (string, metric) Hashtbl.t =
  Hashtbl.create 64
[@@redf.allow "domain-safety"
                "every registry access below locks registry_mutex first; the table is never \
                 touched outside the lock"]

let registry_mutex = Mutex.create ()

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_timer _ -> "timer"

(* register-or-lookup: handles stay valid across [reset], and two
   modules registering the same name share one metric *)
let intern name fresh matches =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some existing ->
      if not (matches existing) then begin
        let k = kind_name existing in
        Mutex.unlock registry_mutex;
        invalid_arg (Printf.sprintf "Obs: %S is already registered as a %s" name k)
      end;
      existing
    | None ->
      let m = fresh () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock registry_mutex;
  m

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ -> function
      | M_counter { v; _ } | M_gauge { v; _ } -> Atomic.set v 0
      | M_timer t ->
        Mutex.lock t.tmutex;
        t.tcount <- 0;
        t.tsum_ns <- 0;
        t.tmin_ns <- 0;
        t.tmax_ns <- 0;
        Mutex.unlock t.tmutex)
    registry;
  Mutex.unlock registry_mutex

module Counter = struct
  type t = { v : int Atomic.t }

  let make ?(det = true) name =
    match
      intern name
        (fun () -> M_counter { det; v = Atomic.make 0 })
        (function M_counter _ -> true | _ -> false)
    with
    | M_counter { v; _ } -> { v }
    | _ -> assert false

  let incr c = if enabled () then Atomic.incr c.v

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
    if enabled () && n > 0 then ignore (Atomic.fetch_and_add c.v n)

  let value c = Atomic.get c.v
end

module Gauge = struct
  type t = { v : int Atomic.t }

  let make ?(det = false) name =
    match
      intern name
        (fun () -> M_gauge { det; v = Atomic.make 0 })
        (function M_gauge _ -> true | _ -> false)
    with
    | M_gauge { v; _ } -> { v }
    | _ -> assert false

  let set g n = if enabled () then Atomic.set g.v n

  let set_max g n =
    if enabled () then begin
      let rec relax () =
        let cur = Atomic.get g.v in
        if n > cur && not (Atomic.compare_and_set g.v cur n) then relax ()
      in
      relax ()
    end

  let value g = Atomic.get g.v
end

module Timer = struct
  type t = timer_state

  let make name =
    match
      intern name
        (fun () ->
          M_timer { tmutex = Mutex.create (); tcount = 0; tsum_ns = 0; tmin_ns = 0; tmax_ns = 0 })
        (function M_timer _ -> true | _ -> false)
    with
    | M_timer t -> t
    | _ -> assert false

  let record_ns t ns =
    if enabled () then begin
      let ns = max 0 ns in
      Mutex.lock t.tmutex;
      if t.tcount = 0 then begin
        t.tmin_ns <- ns;
        t.tmax_ns <- ns
      end
      else begin
        if ns < t.tmin_ns then t.tmin_ns <- ns;
        if ns > t.tmax_ns then t.tmax_ns <- ns
      end;
      t.tcount <- t.tcount + 1;
      t.tsum_ns <- t.tsum_ns + ns;
      Mutex.unlock t.tmutex
    end

  let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

  let time t f =
    if not (enabled ()) then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> record_ns t (now_ns () - t0)) f
    end

  let count t =
    Mutex.lock t.tmutex;
    let c = t.tcount in
    Mutex.unlock t.tmutex;
    c

  let sum_ns t =
    Mutex.lock t.tmutex;
    let s = t.tsum_ns in
    Mutex.unlock t.tmutex;
    s
end

module Span = struct
  (* per-domain stack of open span paths: nesting is a property of the
     call stack, which never crosses domains *)
  let stack : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

  let now_ns = Timer.now_ns

  let with_ ~name f =
    if not (enabled ()) then f ()
    else begin
      let st = Domain.DLS.get stack in
      let path = match !st with [] -> name | parent :: _ -> parent ^ "/" ^ name in
      st := path :: !st;
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let dt = now_ns () - t0 in
          (match !st with [] -> () | _ :: rest -> st := rest);
          Timer.record_ns (Timer.make path) dt)
        f
    end
end

module Snapshot = struct
  type entry =
    | Counter of { det : bool; value : int }
    | Gauge of { det : bool; value : int }
    | Timer of { count : int; sum_ns : int; min_ns : int; max_ns : int }

  type t = (string * entry) list

  let take () =
    Mutex.lock registry_mutex;
    let entries =
      Hashtbl.fold
        (fun name m acc ->
          let e =
            match m with
            | M_counter { det; v } -> Counter { det; value = Atomic.get v }
            | M_gauge { det; v } -> Gauge { det; value = Atomic.get v }
            | M_timer t ->
              Mutex.lock t.tmutex;
              let e =
                Timer { count = t.tcount; sum_ns = t.tsum_ns; min_ns = t.tmin_ns; max_ns = t.tmax_ns }
              in
              Mutex.unlock t.tmutex;
              e
          in
          (name, e) :: acc)
        registry []
    in
    Mutex.unlock registry_mutex;
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries

  (* --- JSON lines: one Wire.Json object per metric --- *)

  module Json = Wire.Json

  (* fields in key order, so the bytes are canonical and Json.to_string
     prints them without a sort *)
  let to_json name e =
    let open Json in
    match e with
    | Counter { det; value } | Gauge { det; value } ->
      let kind = match e with Counter _ -> "counter" | _ -> "gauge" in
      Obj [ ("det", Bool det); ("kind", String kind); ("name", String name); ("value", Int value) ]
    | Timer { count; sum_ns; min_ns; max_ns } ->
      Obj
        [
          ("count", Int count);
          ("det", Bool false);
          ("kind", String "timer");
          ("max_ns", Int max_ns);
          ("min_ns", Int min_ns);
          ("name", String name);
          ("sum_ns", Int sum_ns);
        ]

  let to_jsonl t = String.concat "" (List.map (fun (n, e) -> Json.to_string (to_json n e) ^ "\n") t)

  let ( let* ) = Result.bind

  let get key decode json =
    match Json.member key json with
    | Some v -> decode ~ctx:key v
    | None -> Error (Printf.sprintf "missing field %S" key)

  let to_bool ~ctx = function Json.Bool b -> Ok b | _ -> Error (ctx ^ ": expected a boolean")

  let of_json = function
    | Json.Obj _ as json -> (
      let* name = get "name" Json.to_str json in
      let* kind = get "kind" Json.to_str json in
      match kind with
      | "counter" | "gauge" ->
        let* det = get "det" to_bool json in
        let* value = get "value" Json.to_int json in
        Ok (name, if kind = "counter" then Counter { det; value } else Gauge { det; value })
      | "timer" ->
        let* count = get "count" Json.to_int json in
        let* sum_ns = get "sum_ns" Json.to_int json in
        let* min_ns = get "min_ns" Json.to_int json in
        let* max_ns = get "max_ns" Json.to_int json in
        Ok (name, Timer { count; sum_ns; min_ns; max_ns })
      | k -> Error (Printf.sprintf "unknown kind %S" k))
    | _ -> Error "expected an object"

  (* lines are numbered by their position in [s], blank ones included *)
  let of_jsonl s =
    let rec go acc lineno = function
      | [] -> Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev acc))
      | l :: rest when String.trim l = "" -> go acc (lineno + 1) rest
      | l :: rest -> (
        match Result.bind (Json.of_string l) of_json with
        | Ok entry -> go (entry :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    go [] 1 (String.split_on_char '\n' s)

  (* --- comparison --- *)

  let det_entry = function
    | Counter { det; _ } | Gauge { det; _ } -> det
    | Timer _ -> false

  let equal_entry a b =
    match (a, b) with
    | Counter { det = da; value = va }, Counter { det = db; value = vb }
    | Gauge { det = da; value = va }, Gauge { det = db; value = vb } ->
      Bool.equal da db && Int.equal va vb
    | Timer ta, Timer tb ->
      Int.equal ta.count tb.count && Int.equal ta.sum_ns tb.sum_ns
      && Int.equal ta.min_ns tb.min_ns && Int.equal ta.max_ns tb.max_ns
    | (Counter _ | Gauge _ | Timer _), _ -> false

  let render = function
    | Counter { value; _ } -> Printf.sprintf "counter %d" value
    | Gauge { value; _ } -> Printf.sprintf "gauge %d" value
    | Timer { count; sum_ns; _ } -> Printf.sprintf "timer count=%d sum_ns=%d" count sum_ns

  let diff ?(det_only = false) a b =
    let keep (_, e) = (not det_only) || det_entry e in
    let a = List.filter keep a and b = List.filter keep b in
    (* both sorted by name: merge *)
    let rec go acc a b =
      match (a, b) with
      | [], [] -> List.rev acc
      | (n, e) :: rest, [] -> go (Printf.sprintf "- %s (%s)" n (render e) :: acc) rest []
      | [], (n, e) :: rest -> go (Printf.sprintf "+ %s (%s)" n (render e) :: acc) [] rest
      | ((na, ea) :: ra as la), ((nb, eb) :: rb as lb) ->
        let c = String.compare na nb in
        if c < 0 then go (Printf.sprintf "- %s (%s)" na (render ea) :: acc) ra lb
        else if c > 0 then go (Printf.sprintf "+ %s (%s)" nb (render eb) :: acc) la rb
        else if equal_entry ea eb then go acc ra rb
        else go (Printf.sprintf "~ %s: %s -> %s" na (render ea) (render eb) :: acc) ra rb
    in
    go [] a b
end
