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

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (Bignum.string_of_int i)
    | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
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
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- parsing --- *)

exception Fail of int * string

let is_digit = function '0' .. '9' -> true | _ -> false

let rec matches s at word i =
  i = String.length word || (s.[at + i] = word.[i] && matches s at word (i + 1))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  (* past the end reads as NUL: every caller treats both as "no match" *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && matches s !pos word 0 then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && (match s.[!pos] with '"' | '\\' -> false | _ -> true) do
      incr pos
    done;
    if !pos < n && s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - start - 1)
    end
    else begin
      (* an escape (or no closing quote): decode from here on *)
      let buf = Buffer.create (!pos - start + 16) in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
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
             if !pos + 4 > n then fail "bad \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some _ | None -> fail "unsupported \\u escape (ASCII only)")
           | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    end
  in
  let parse_int () =
    let negative = peek () = '-' in
    if negative then incr pos;
    let first = !pos in
    (* accumulated negated, so the range is int_of_string's:
       min_int .. max_int *)
    let acc = ref 0 and fits = ref true in
    while !pos < n && is_digit s.[!pos] do
      let d = Char.code s.[!pos] - Char.code '0' in
      if !acc < (min_int + d) / 10 then fits := false else acc := (!acc * 10) - d;
      incr pos
    done;
    (match peek () with
     | '.' | 'e' | 'E' -> fail "non-integer numbers are not part of the schema"
     | _ -> ());
    if !pos = first || (not !fits) || ((not negative) && !acc = min_int) then fail "bad integer";
    Int (if negative then !acc else - !acc)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> String (parse_string ())
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_int ()
    | _ -> fail "expected a value"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "at offset %d: %s" at msg)

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
