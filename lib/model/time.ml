type t = int

let scale = 1000
let zero = 0
let of_ticks n = n
let ticks n = n
let max_units = max_int / scale

let of_units u =
  if u > max_units || u < -max_units then
    invalid_arg (Printf.sprintf "Time.of_units: %d is out of range" u);
  u * scale

type decimal_error = Malformed of string | Out_of_range

let invalid_digit = "Bignum.of_string: invalid digit"

let rec digits s i stop =
  i >= stop || match s.[i] with '0' .. '9' -> digits s (i + 1) stop | _ -> false

let rec zeros s i = i >= String.length s || (s.[i] = '0' && zeros s (i + 1))
let signed s i = i < String.length s && (s.[i] = '+' || s.[i] = '-')
let rec find_dot s i = if i >= String.length s || s.[i] = '.' then i else find_dot s (i + 1)

(* the messages the exact-rational parser raised, in the order it
   checked: the integer part, then the fraction *)
let syntax_error s ~start ~dot =
  let n = String.length s and frac = dot + 1 in
  if n = 0 then Some "Bignum.of_string: empty string"
  else if dot = n then
    if start = n then Some "Bignum.of_string: no digits"
    else if digits s start n then None
    else Some invalid_digit
  else if frac = n then Some "Rat.of_decimal_string: trailing dot"
  else if not (digits s start dot) then Some invalid_digit
  else if signed s frac then
    if frac + 1 = n then Some "Bignum.of_string: no digits"
    else if digits s (frac + 1) n then Some "Rat.of_decimal_string: sign in fraction"
    else Some invalid_digit
  else if digits s frac n then None
  else Some invalid_digit

(* [+-]digits[.digits] or [+-].digits straight into ticks.  Syntax is
   checked first, then sub-tick digits, then range — the order the
   exact-rational parser used — so the two agree on every spelling
   except a signed fraction ("1.+5"), which this grammar rejects, and
   the range error, which used to escape as a [Failure]. *)
let decimal s =
  let n = String.length s in
  let start = if signed s 0 then 1 else 0 in
  let dot = find_dot s 0 in
  match syntax_error s ~start ~dot with
  | Some msg -> Error (Malformed msg)
  | None ->
    if not (zeros s (dot + 4)) then
      Error (Malformed (Printf.sprintf "Time.of_decimal_string: %S is finer than 1/%d" s scale))
    else begin
      (* accumulate negated, like [int_of_string], so the negative side
         reaches [min_int]; three fraction digits, zero-padded *)
      let acc = ref 0 and fits = ref true and i = ref start and last = dot + 3 in
      while !fits && !i <= last do
        if !i <> dot then begin
          let d = if !i < n then Char.code s.[!i] - Char.code '0' else 0 in
          if !acc < (min_int + d) / 10 then fits := false else acc := (!acc * 10) - d
        end;
        incr i
      done;
      if not !fits then Error Out_of_range
      else if s.[0] = '-' then Ok !acc
      else if !acc = min_int then Error Out_of_range
      else Ok (- !acc)
    end

let of_decimal_string s =
  match decimal s with
  | Ok t -> t
  | Error (Malformed msg) -> invalid_arg msg
  | Error Out_of_range -> invalid_arg (Printf.sprintf "Time.of_decimal_string: %S is out of range" s)

let of_float_round f = int_of_float (Float.round (f *. float_of_int scale))
let add = ( + )
let sub = ( - )
let mul_int t k = t * k
let min = Int.min
let max = Int.max
let compare = Int.compare
let equal = Int.equal
let is_positive t = t > 0

(* annotated at [int] so each compiles to a native comparison, not a
   call to the polymorphic comparator *)
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
let ( >= ) (a : t) (b : t) = a >= b
let ( > ) (a : t) (b : t) = a > b
let to_rat t = Rat.of_ints t scale
let to_float t = float_of_int t /. float_of_int scale

let to_string t =
  let sign = if Stdlib.(t < 0) then "-" else "" in
  let a = abs t in
  let whole = a / scale and frac = a mod scale in
  if frac = 0 then Printf.sprintf "%s%d" sign whole
  else begin
    (* trim trailing zeros of the 3-digit fraction *)
    let f = Printf.sprintf "%03d" frac in
    let len = ref (String.length f) in
    while f.[!len - 1] = '0' do
      decr len
    done;
    Printf.sprintf "%s%d.%s" sign whole (String.sub f 0 !len)
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
