(* Sign-magnitude arbitrary-precision integers in base 2^30.

   Invariants: [mag] is little-endian with no leading zero digit; the value
   is zero iff [sign = 0] iff [mag] is empty.  Base 2^30 keeps every digit
   product below 2^60, so schoolbook multiplication never overflows native
   63-bit ints. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* --- magnitude helpers (arrays of digits, little-endian) --- *)

let mag_normalize (a : int array) : int array =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  mag_normalize r

(* requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    mag_normalize r
  end

(* multiply magnitude by a small non-negative int (< base) *)
let mag_mul_small a m =
  if m = 0 || Array.length a = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * m) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(la) <- !carry;
    mag_normalize r
  end

(* divide magnitude by a small positive int, returning (quotient, rem) *)
let mag_divmod_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (mag_normalize q, !r)

(* Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) over base-2^30 limbs.
   The divisor is shifted so its top limb has its high bit set; then
   each quotient limb is estimated from the top two limbs of the
   running remainder over the divisor's top limb, corrected at most
   twice against the next limb, and the rare estimate still one too
   large is repaired by adding the divisor back.  Every intermediate
   product is below 2^61, inside a native int.  One-limb divisors take
   [mag_divmod_small]. *)
let mag_divmod a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else if lb = 1 then begin
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let la = Array.length a in
    let shift =
      let rec go s top = if top land (base lsr 1) <> 0 then s else go (s + 1) (top lsl 1) in
      go 0 b.(lb - 1)
    in
    (* v = b << shift (lb limbs), u = a << shift (la + 1 limbs) *)
    let shl src len =
      let dst = Array.make len 0 in
      let carry = ref 0 in
      for i = 0 to Array.length src - 1 do
        let x = (src.(i) lsl shift) lor !carry in
        dst.(i) <- x land base_mask;
        carry := x lsr base_bits
      done;
      if len > Array.length src then dst.(Array.length src) <- !carry;
      dst
    in
    let v = shl b lb and u = shl a (la + 1) in
    let vtop = v.(lb - 1) and vnext = v.(lb - 2) in
    let q = Array.make (la - lb + 1) 0 in
    for j = la - lb downto 0 do
      let num = (u.(j + lb) lsl base_bits) lor u.(j + lb - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      while
        !rhat < base
        && (!qhat >= base || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + lb - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* u[j .. j+lb] -= qhat * v *)
      let carry = ref 0 and borrow = ref 0 in
      for i = 0 to lb - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let t = u.(i + j) - (p land base_mask) - !borrow in
        u.(i + j) <- t land base_mask;
        borrow := if t < 0 then 1 else 0
      done;
      let top = u.(j + lb) - !carry - !borrow in
      u.(j + lb) <- top land base_mask;
      if top < 0 then begin
        (* the estimate was one too large: add v back, dropping the carry out *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to lb - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land base_mask;
          c := s lsr base_bits
        done;
        u.(j + lb) <- (u.(j + lb) + !c) land base_mask
      end;
      q.(j) <- !qhat
    done;
    (* the remainder is u[0 .. lb-1] >> shift *)
    let r = Array.make lb 0 in
    for i = 0 to lb - 1 do
      let hi = if i + 1 < lb then u.(i + 1) else 0 in
      r.(i) <- ((u.(i) lsr shift) lor (hi lsl (base_bits - shift))) land base_mask
    done;
    (mag_normalize q, mag_normalize r)
  end

(* --- signed layer --- *)

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

(* Fast path: values whose magnitude fits in two digits (< 2^60) are
   handled with native int arithmetic.  Schedulability formulas rarely
   leave this range, and the generic schoolbook routines are an order of
   magnitude slower. *)
let to_small t =
  match Array.length t.mag with
  | 0 -> Some 0
  | 1 -> Some (t.sign * t.mag.(0))
  | 2 -> Some (t.sign * ((t.mag.(1) * base) + t.mag.(0)))
  | _ -> None

let of_small n =
  (* |n| < 2^62 always representable in <= 3 digits *)
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    let m = abs n in
    let d0 = m land base_mask in
    let d1 = (m lsr base_bits) land base_mask in
    let d2 = m lsr (2 * base_bits) in
    let mag = if d2 <> 0 then [| d0; d1; d2 |] else if d1 <> 0 then [| d0; d1 |] else [| d0 |] in
    { sign; mag }
  end

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* careful with min_int: work with a non-negative accumulator via abs on
       the fly using the division loop below, which handles min_int because
       we negate digit-wise *)
    let rec digits n acc = if n = 0 then acc else digits (n lsr base_bits) ((n land base_mask) :: acc) in
    let n_abs = abs n in
    if n_abs >= 0 then
      let ds = List.rev (digits n_abs []) in
      make sign (Array.of_list ds)
    else begin
      (* n = min_int: abs overflowed.  min_int = -2^62 on 64-bit. *)
      let m = -(n / 2) in
      let half = digits m [] |> List.rev |> Array.of_list in
      let dbl = mag_mul_small half 2 in
      make sign dbl
    end
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let sign t = t.sign
let is_zero t = t.sign = 0

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let hash t = Hashtbl.hash (t.sign, t.mag)
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  match (to_small a, to_small b) with
  | Some x, Some y -> of_small (x + y) (* |x|,|y| < 2^61: no overflow *)
  | _ ->
    if a.sign = 0 then b
    else if b.sign = 0 then a
    else if a.sign = b.sign then { sign = a.sign; mag = mag_add a.mag b.mag }
    else begin
      let c = mag_compare a.mag b.mag in
      if c = 0 then zero
      else if c > 0 then { sign = a.sign; mag = mag_sub a.mag b.mag }
      else { sign = b.sign; mag = mag_sub b.mag a.mag }
    end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  match (to_small a, to_small b) with
  | Some x, Some y when Stdlib.abs x < (1 lsl 31) && Stdlib.abs y < (1 lsl 31) ->
    of_small (x * y)
  | _ ->
    if a.sign = 0 || b.sign = 0 then zero
    else { sign = a.sign * b.sign; mag = mag_mul a.mag b.mag }

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  match (to_small a, to_small b) with
  | Some x, Some y -> (of_small (x / y), of_small (x mod y))
  | _ ->
    let q_mag, r_mag = mag_divmod a.mag b.mag in
    let q = make (a.sign * b.sign) q_mag in
    let r = make a.sign r_mag in
    (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let fdivmod a b =
  let q, r = divmod a b in
  if r.sign <> 0 && r.sign <> b.sign then (pred q, add r b) else (q, r)

let fdiv a b = fst (fdivmod a b)

let gcd a b =
  match (to_small a, to_small b) with
  | Some x, Some y ->
    let rec go a b = if b = 0 then a else go b (a mod b) in
    of_small (go (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    let rec go a b = if is_zero b then a else go b (rem a b) in
    go (abs a) (abs b)

let lcm a b = if is_zero a || is_zero b then zero else abs (div (mul a b) (gcd a b))

let pow b n =
  if n < 0 then invalid_arg "Bignum.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one b n

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_int_opt t =
  let rec go i acc =
    if i < 0 then Some acc
    else if acc > (max_int - t.mag.(i)) / base then None
    else go (i - 1) ((acc * base) + t.mag.(i))
  in
  match go (Array.length t.mag - 1) 0 with
  | None ->
    (* the magnitude of min_int does not fit in a positive int; special-case *)
    if t.sign < 0 && equal t (of_int Stdlib.min_int) then Some Stdlib.min_int else None
  | Some m -> Some (if t.sign < 0 then -m else m)

let to_int_exn t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Bignum.to_int_exn: value out of int range"

let ten_pow_9 = 1_000_000_000

(* [Stdlib.string_of_int] formats through C's sprintf; this writes the
   same bytes directly.  The digits come from the non-positive [-|n|],
   which also exists for [min_int]. *)
let string_of_int n =
  let m = if n < 0 then n else -n in
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  let sign = if n < 0 then 1 else 0 in
  let len = sign + width m 1 in
  let b = Bytes.create len in
  if sign = 1 then Bytes.set b 0 '-';
  let m = ref m in
  for i = len - 1 downto sign do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b

(* a value that fits in an int prints natively; only wider ones take
   the base-10^9 chunk loop *)
let to_string t =
  match to_int_opt t with
  | Some n -> string_of_int n
  | None ->
    let chunks = ref [] in
    let m = ref t.mag in
    while Array.length !m > 0 do
      let q, r = mag_divmod_small !m ten_pow_9 in
      chunks := r :: !chunks;
      m := q
    done;
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bignum.of_string: empty string";
  let negative, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= n then invalid_arg "Bignum.of_string: no digits";
  let acc = ref zero in
  let t10 = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bignum.of_string: invalid digit";
    acc := add (mul !acc t10) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let to_float t =
  let f = Array.fold_right (fun d acc -> (acc *. float_of_int base) +. float_of_int d) t.mag 0.0 in
  if t.sign < 0 then -.f else f

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
