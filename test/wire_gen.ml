(* Generators of JSON texts and service request lines, shared by the
   suites that fuzz a decoder: random values with every spelling JSON
   allows, and request lines as clients write them, then byte-mutated. *)

module Json = Wire.Json

let json_string =
  let special = [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\001'; '\031'; '\127'; '\200'; ' '; 'u' ] in
  QCheck2.Gen.(string_size ~gen:(oneof [ char_range 'a' 'e'; oneofl special ]) (int_range 0 6))

let json_value =
  let open QCheck2.Gen in
  let int_ = oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int; 0; -1 ]; int ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int_;
               map (fun s -> Json.String s) json_string;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l) (list_size (int_range 0 4) (pair json_string (self (n / 3))))
               );
             ])

(* any JSON text for [v]: whitespace between tokens, and each string
   byte raw where JSON allows it or escaped (\n, \/, \u00XX in either
   case) *)
let rec json_text v =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "\t"; "\n "; "\r\n" ] in
  let padded g = map3 (fun a x b -> a ^ x ^ b) ws g ws in
  let seq opening closing items =
    map (fun parts -> opening ^ String.concat "," parts ^ closing) (flatten_l items)
  in
  match v with
  | Json.Null -> return "null"
  | Json.Bool b -> return (string_of_bool b)
  | Json.Int i -> return (string_of_int i)
  | Json.String s -> string_text s
  | Json.List vs -> seq "[" "]" (List.map (fun v -> padded (json_text v)) vs)
  | Json.Obj fields ->
    let member (k, v) = map2 (fun k v -> k ^ ":" ^ v) (padded (string_text k)) (padded (json_text v)) in
    seq "{" "}" (List.map member fields)

and string_text s =
  let open QCheck2.Gen in
  let byte c =
    let u =
      map (fun upper -> Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") (Char.code c)) bool
    in
    match c with
    | '"' -> oneof [ return "\\\""; u ]
    | '\\' -> oneof [ return "\\\\"; u ]
    | '/' -> oneofl [ "/"; "\\/" ]
    | '\n' -> oneof [ return "\\n"; return "\n"; u ]
    | '\t' -> oneof [ return "\\t"; u ]
    | c when Char.code c >= 0x80 -> return (String.make 1 c)
    | c -> oneof [ return (String.make 1 c); u ]
  in
  let bytes = List.map byte (List.of_seq (String.to_seq s)) in
  map (fun parts -> "\"" ^ String.concat "" parts ^ "\"") (flatten_l bytes)

let json_texts = QCheck2.Gen.(json_value >>= fun v -> map (fun text -> (v, text)) (json_text v))

(* request lines as clients spell them, then byte-mutated: a byte
   replaced, inserted or deleted, a span duplicated, the line cut, or a
   run of digits spliced in (into a time, that is a value past the int
   range) *)
let request_lines =
  let open QCheck2.Gen in
  let time = oneofl [ "1.26"; "0.95"; "7"; "5"; "01.5"; ".5"; "+7"; "1.260" ] in
  let task =
    map2
      (fun (c, d, t) (a, quote) ->
        let q s =
          if quote || String.contains s '.' || String.contains s '+' then "\"" ^ s ^ "\"" else s
        in
        Printf.sprintf {|{"name":"t","C":%s,"D":%s,"T":%s,"A":%d}|} (q c) (q d) (q t) a)
      (triple time time time) (pair (int_range 1 12) bool)
  in
  let id =
    oneofl
      [
        {|"id":3,|}; {|"id":"r\"1",|}; {|"id":-4,|}; ""; {|"id":[1],|}; {|"id":null,|};
        {|"id":4611686018427387903,|}; {|"id":4611686018427387904,|};
        {|"id":-4611686018427387904,|}; {|"id":-4611686018427387905,|}; {|"id":-0,|}; {|"id":007,|};
      ]
  in
  map3
    (fun id analyzer tasks ->
      Printf.sprintf {|{%s"analyzer":"%s","fpga_area":10,"tasks":[%s]}|} id analyzer
        (String.concat "," tasks))
    id (oneofl [ "DP"; "gn1"; "GN2"; "nec"; "nope" ]) (list_size (int_range 1 3) task)

let mutate =
  let open QCheck2.Gen in
  let syntax = [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '.'; '-'; '+'; '0'; '9'; 'e'; ' ' ] in
  let byte = oneof [ char; oneofl syntax ] in
  let once line =
    let n = String.length line in
    map3
      (fun kind at (c, digits) ->
        let at = at mod (n + 1) in
        let tail = String.sub line at (n - at) in
        match kind with
        | 0 when at < n -> String.sub line 0 at ^ String.make 1 c ^ String.sub line (at + 1) (n - at - 1)
        | 1 -> String.sub line 0 at ^ String.make 1 c ^ tail
        | 2 when at < n -> String.sub line 0 at ^ String.sub line (at + 1) (n - at - 1)
        | 3 -> String.sub line 0 at ^ String.sub tail 0 (min 6 (n - at)) ^ tail
        | 4 -> String.sub line 0 at
        | _ -> String.sub line 0 at ^ String.make digits '9' ^ tail)
      (int_range 0 5) nat (pair byte (int_range 1 25))
  in
  let rec times k line = if k = 0 then return line else once line >>= times (k - 1) in
  fun line -> int_range 1 3 >>= fun k -> times k line

let mutated_lines = QCheck2.Gen.(request_lines >>= mutate)
