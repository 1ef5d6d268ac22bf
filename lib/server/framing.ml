type item = Line of string | Too_large of int | Timed_out

type t = {
  max_line_bytes : int;
  timeout : float option;
  buf : Buffer.t;  (* bytes of the current unterminated line *)
  (* inside a dropped (over-cap or timed-out) line: swallow bytes up to
     its terminating newline without reporting anything further *)
  mutable discarding : bool;
  mutable deadline : float option;
}

let default_max_line_bytes = 16 * 1024 * 1024

let create ?(max_line_bytes = default_max_line_bytes) ?timeout () =
  { max_line_bytes; timeout; buf = Buffer.create 256; discarding = false; deadline = None }

let deadline t = t.deadline
let not_blank line = String.trim line <> ""

let feed t ~now chunk =
  let items = ref [] in
  let emit i = items := i :: !items in
  let n = String.length chunk in
  let i = ref 0 in
  while !i < n do
    match String.index_from_opt chunk !i '\n' with
    | Some j ->
      if t.discarding then t.discarding <- false
      else begin
        Buffer.add_substring t.buf chunk !i (j - !i);
        let line = Buffer.contents t.buf in
        Buffer.clear t.buf;
        (* the cap applies to complete lines too: an over-cap request
           that arrives fully terminated must not bypass it *)
        if String.length line > t.max_line_bytes then emit (Too_large (String.length line))
        else if not_blank line then emit (Line line)
      end;
      t.deadline <- None;
      i := j + 1
    | None ->
      if not t.discarding then begin
        Buffer.add_substring t.buf chunk !i (n - !i);
        if Buffer.length t.buf > t.max_line_bytes then begin
          (* emitted after the chunk's complete lines, which were
             already answered above — they must never be lost to the
             oversized partial that followed them *)
          emit (Too_large (Buffer.length t.buf));
          Buffer.clear t.buf;
          t.discarding <- true;
          t.deadline <- None
        end
      end;
      i := n
  done;
  (* the deadline is armed when a partial *starts* and only then:
     chunks that merely extend the partial leave it in place *)
  (match (t.timeout, t.deadline) with
   | Some s, None when Buffer.length t.buf > 0 -> t.deadline <- Some (now +. s)
   | _ -> ());
  List.rev !items

let finish t =
  let items =
    if t.discarding then []
    else begin
      let line = Buffer.contents t.buf in
      if String.length line > t.max_line_bytes then [ Too_large (String.length line) ]
      else if not_blank line then [ Line line ]
      else []
    end
  in
  Buffer.clear t.buf;
  t.discarding <- false;
  t.deadline <- None;
  items

let check_deadline t ~now =
  match t.deadline with
  | Some d when now >= d ->
    Buffer.clear t.buf;
    t.deadline <- None;
    t.discarding <- true;
    [ Timed_out ]
  | _ -> []
