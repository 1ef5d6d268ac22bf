(* The long division Bignum used before Knuth's Algorithm D, kept as
   the differential reference for [Bignum.divmod]: each quotient limb
   is found by a 30-step binary search, every step scaling a shifted
   copy of the divisor.  The magnitude routines below are the ones it
   ran on, verbatim; [divmod] converts through public operations only
   (limbs come out of single-limb divisions, which never reach the
   multi-limb code under test). *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

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

let mag_shift_left_digits a k =
  if Array.length a = 0 then [||]
  else Array.append (Array.make k 0) a

let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else begin
    let la = Array.length a and lb = Array.length b in
    let shift = la - lb in
    let q = Array.make (shift + 1) 0 in
    let r = ref a in
    for k = shift downto 0 do
      let bk = mag_shift_left_digits b k in
      (* binary search the largest digit d in [0, base) with d*bk <= r *)
      let lo = ref 0 and hi = ref (base - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if mag_compare (mag_mul_small bk mid) !r <= 0 then lo := mid
        else hi := mid - 1
      done;
      let d = !lo in
      if d > 0 then r := mag_sub !r (mag_mul_small bk d);
      q.(k) <- d
    done;
    (mag_normalize q, !r)
  end

(* --- through the public API --- *)

let b_base = Bignum.of_int base

(* 2^15 is a one-limb divisor: two divisions by it peel one limb *)
let half = Bignum.of_int (1 lsl 15)

(* little-endian base-2^30 limbs of |x| *)
let limbs x =
  let rec go x acc =
    if Bignum.is_zero x then Array.of_list (List.rev acc)
    else
      let q1, lo = Bignum.divmod x half in
      let q, hi = Bignum.divmod q1 half in
      go q ((Bignum.to_int_exn lo + (Bignum.to_int_exn hi lsl 15)) :: acc)
  in
  go (Bignum.abs x) []

let of_limbs sign a =
  let m = Array.fold_right (fun d acc -> Bignum.add (Bignum.mul acc b_base) (Bignum.of_int d)) a Bignum.zero in
  if sign < 0 then Bignum.neg m else m

(* truncated division with [sign r = sign a], like [Bignum.divmod] *)
let divmod a b =
  if Bignum.is_zero b then raise Division_by_zero;
  let q, r = mag_divmod (limbs a) (limbs b) in
  (of_limbs (Bignum.sign a * Bignum.sign b) q, of_limbs (Bignum.sign a) r)
