(* exact: no float may enter the wire format; check-src's exact-arith
   scope is chosen by path, and this library sits outside it *)
[@@@redf.exact]

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let hex = "0123456789abcdef"

let rec clean s i =
  i >= String.length s
  || match s.[i] with '"' | '\\' | '\000' .. '\031' -> false | _ -> clean s (i + 1)

(* a string with nothing to escape is copied as is *)
let add_escaped buf s =
  if clean s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\000' .. '\031' ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex.[Char.code c lsr 4];
          Buffer.add_char buf hex.[Char.code c land 15]
        | c -> Buffer.add_char buf c)
      s

(* builders emit their fields in key order, so the sort is the
   exception; a stable sort of an ordered list is the identity *)
let rec ordered = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && ordered rest
  | _ -> true

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Bignum.add_int buf i
  | String s -> add_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    let fields =
      if ordered fields then fields else List.sort (fun (a, _) (b, _) -> String.compare a b) fields
    in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing --- *)

(* One lexer for every decoder: [of_string] builds a tree with it, and
   a caller that wants its own representation (the service's request
   decoder) drives the same functions, so both accept the same texts
   and fail at the same offsets with the same messages. *)

exception Fail of int * string

type cursor = { text : string; len : int; mutable pos : int }

let fail c msg = raise (Fail (c.pos, msg))
let is_digit = function '0' .. '9' -> true | _ -> false

(* past the end reads as NUL: every caller treats both as "no match" *)
let current c = if c.pos < c.len then String.unsafe_get c.text c.pos else '\000'

(* the scanning loops run on a local index, written back once *)
let skip_ws c =
  let s = c.text and n = c.len in
  let i = ref c.pos in
  while !i < n && match String.unsafe_get s !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    incr i
  done;
  c.pos <- !i

let peek c =
  skip_ws c;
  current c

let expect c ch =
  if current c = ch then c.pos <- c.pos + 1
  else begin
    skip_ws c;
    if current c = ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)
  end

let rec matches s at word i =
  i = String.length word || (s.[at + i] = word.[i] && matches s at word (i + 1))

let literal c word v =
  let len = String.length word in
  if c.pos + len <= c.len && matches c.text c.pos word 0 then begin
    c.pos <- c.pos + len;
    v
  end
  else fail c "bad literal"

(* the [intern] entry spelled by [len] bytes of [s] at [at], shared
   instead of copied; a fresh copy when none is *)
let rec interned intern s at len =
  match intern with
  | [] -> String.sub s at len
  | k :: rest -> if String.length k = len && matches s at k 0 then k else interned rest s at len

let string_in c intern =
  expect c '"';
  let s = c.text and n = c.len in
  let start = c.pos in
  let i = ref start in
  while !i < n && match String.unsafe_get s !i with '"' | '\\' -> false | _ -> true do
    incr i
  done;
  c.pos <- !i;
  if c.pos < n && s.[c.pos] = '"' then begin
    c.pos <- c.pos + 1;
    interned intern s start (c.pos - start - 1)
  end
  else begin
    (* an escape (or no closing quote): decode from here on *)
    let buf = Buffer.create (c.pos - start + 16) in
    Buffer.add_substring buf s start (c.pos - start);
    let rec go () =
      if c.pos >= n then fail c "unterminated string";
      let ch = s.[c.pos] in
      c.pos <- c.pos + 1;
      if ch = '"' then Buffer.contents buf
      else if ch = '\\' then begin
        if c.pos >= n then fail c "bad escape";
        let e = s.[c.pos] in
        c.pos <- c.pos + 1;
        (match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if c.pos + 4 > n then fail c "bad \\u escape";
           let hex = String.sub s c.pos 4 in
           c.pos <- c.pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | Some _ | None -> fail c "unsupported \\u escape (ASCII only)")
         | _ -> fail c "unknown escape");
        go ()
      end
      else begin
        Buffer.add_char buf ch;
        go ()
      end
    in
    go ()
  end

let string c = string_in c []

let int c =
  skip_ws c;
  let negative = current c = '-' in
  if negative then c.pos <- c.pos + 1;
  let first = c.pos in
  (* accumulated negated, so the range is int_of_string's:
     min_int .. max_int *)
  let acc = ref 0 and fits = ref true and i = ref first in
  while !i < c.len && is_digit (String.unsafe_get c.text !i) do
    let d = Char.code (String.unsafe_get c.text !i) - Char.code '0' in
    if !acc < (min_int + d) / 10 then fits := false else acc := (!acc * 10) - d;
    incr i
  done;
  c.pos <- !i;
  (match current c with
   | '.' | 'e' | 'E' -> fail c "non-integer numbers are not part of the schema"
   | _ -> ());
  if c.pos = first || (not !fits) || ((not negative) && !acc = min_int) then fail c "bad integer";
  if negative then !acc else - !acc

(* the loops take every argument, so a fold allocates no closure *)
let rec members c intern f acc =
  let k = string_in c intern in
  expect c ':';
  let acc = f acc k in
  skip_ws c;
  match current c with
  | ',' ->
    c.pos <- c.pos + 1;
    members c intern f acc
  | '}' ->
    c.pos <- c.pos + 1;
    acc
  | _ -> fail c "expected ',' or '}'"

let fold_members ~intern c f acc =
  expect c '{';
  skip_ws c;
  if current c = '}' then begin
    c.pos <- c.pos + 1;
    acc
  end
  else members c intern f acc

let rec items c f acc =
  let acc = f acc in
  skip_ws c;
  match current c with
  | ',' ->
    c.pos <- c.pos + 1;
    items c f acc
  | ']' ->
    c.pos <- c.pos + 1;
    acc
  | _ -> fail c "expected ',' or ']'"

let fold_items c f acc =
  expect c '[';
  skip_ws c;
  if current c = ']' then begin
    c.pos <- c.pos + 1;
    acc
  end
  else items c f acc

let rec value c =
  match peek c with
  | '"' -> String (string c)
  | '{' ->
    Obj
      (List.rev
         (fold_members ~intern:[] c
            (fun acc k ->
              let v = value c in
              (k, v) :: acc)
            []))
  | '[' -> List (List.rev (fold_items c (fun acc -> value c :: acc) []))
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> Int (int c)
  | _ -> fail c "expected a value"

let decode text f =
  let c = { text; len = String.length text; pos = 0 } in
  match
    let v = f c in
    skip_ws c;
    if c.pos <> c.len then fail c "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "at offset %d: %s" at msg)

let of_string s = decode s value

(* --- accessors --- *)

let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj fields -> assoc k fields | _ -> None

let to_int ~ctx = function
  | Int i -> Ok i
  | _ -> Error (ctx ^ ": expected an integer")

let to_str ~ctx = function
  | String s -> Ok s
  | _ -> Error (ctx ^ ": expected a string")

let to_list ~ctx = function
  | List vs -> Ok vs
  | _ -> Error (ctx ^ ": expected an array")
