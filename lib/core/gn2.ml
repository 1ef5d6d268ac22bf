module Columns = Model.Taskset.Columns

let wider_note = "a task is wider than the FPGA"

(* candidates actually evaluated: the observable cost of the O(N^3)
   test (each evaluation is an O(N) beta sweep) *)
let m_lambda_evals = Obs.Counter.make "core.gn2.lambda_evals"

let check_cond ~cond ~k ~lambda ~lhs ~rhs =
  {
    Verdict.task_index = k;
    satisfied = true;
    lhs;
    rhs;
    note = "condition " ^ cond ^ " at lambda=" ^ Rat.to_string lambda;
  }

let check_closest ~k ~lambda ~lhs ~rhs =
  {
    Verdict.task_index = k;
    satisfied = false;
    lhs;
    rhs;
    note = "no lambda works; closest lambda=" ^ Rat.to_string lambda;
  }

let check_no_candidate ~k =
  {
    Verdict.task_index = k;
    satisfied = false;
    lhs = Rat.zero;
    rhs = Rat.zero;
    note = "no lambda candidate in range";
  }

(* Check k at a candidate lambda = p/q, a reduced ratio of ticks.  With
   M_k = max(D_k, T_k) and w = q D_k - p M_k, so that
   1 - lambda_k = w / (q D_k), Lemma 7's beta_i is b_i / (T_i D_k q) for
   the int b_i of [beta] below, and the two conditions read

     1)  sum_i A_i m1_i / T_i  <  Abnd w
     2)  sum_i A_i m2_i / T_i  <  (Abnd - Amin) w + Amin q D_k

   with m1_i = min(b_i, T_i w) and m2_i = min(b_i, T_i q D_k); each lhs
   printed is its sum over q D_k.  A sum is decided from the floors
   S = sum floor(A_i m_i / T_i) and the count c of inexact terms: the
   sum lies in [S, S + c), so only R - c < S < R needs it exactly: as S
   plus the remainders over L = lcm(T_i), the form printing also uses. *)
module Make (I : Ticks.INT) = struct
  let zero = I.of_int 0
  let max a b = if I.compare a b >= 0 then a else b

  (* X < r for X in [s, s + cnt), X = s iff cnt = 0 *)
  let below ~s ~cnt ~r exact =
    if cnt = 0 then I.compare s r < 0
    else if I.compare s r >= 0 then false
    else if I.compare (I.add s (I.of_int cnt)) r <= 0 then true
    else exact ()

  (* a rejected candidate, kept while it is the closest on condition 2 *)
  type closest = { p : I.t; q : I.t; r2 : I.t; delta : I.t; cnt : int }

  let checks ~fpga_area (cols : Columns.t) =
    let n = cols.Columns.n in
    let c = Array.map I.of_int cols.Columns.exec in
    let d = Array.map I.of_int cols.Columns.deadline in
    let t = Array.map I.of_int cols.Columns.period in
    let a = Array.map I.of_int cols.Columns.area in
    let amin = I.of_int (Array.fold_left Stdlib.min max_int cols.Columns.area) in
    let abnd = I.of_int (fpga_area - Array.fold_left Stdlib.max 0 cols.Columns.area + 1) in
    (* the discontinuity points of beta: C_i/T_i for every i, plus C_i/D_i
       when D_i > T_i, reduced, sorted, unique; each k walks a slice *)
    let cp, cq =
      let reduced p q =
        let g = I.gcd p q in
        (I.fdiv p g, I.fdiv q g)
      in
      let points = ref [] in
      for i = n - 1 downto 0 do
        if I.compare d.(i) t.(i) > 0 then points := reduced c.(i) d.(i) :: !points;
        points := reduced c.(i) t.(i) :: !points
      done;
      let sorted =
        List.sort_uniq (fun (p1, q1) (p2, q2) -> I.compare (I.mul p1 q2) (I.mul p2 q1)) !points
      in
      (Array.of_list (List.map fst sorted), Array.of_list (List.map snd sorted))
    in
    let ncand = Array.length cp in
    (* exact sums are Bignum numerators over L = lcm(T_i) *)
    let exact =
      lazy
        (let tb = Array.map I.to_bignum t in
         let l = Array.fold_left Bignum.lcm Bignum.one tb in
         (l, Array.map (fun ti -> Bignum.div l ti) tb))
    in
    let evals = ref 0 in
    let check k =
      let ck = c.(k) and dk = d.(k) and tk = t.(k) in
      let mk = max dk tk in
      (* the slice C_k/T_k <= lambda <= min(1, D_k/T_k) *)
      let first = ref 0 in
      while !first < ncand && I.compare (I.mul cp.(!first) tk) (I.mul ck cq.(!first)) < 0 do
        incr first
      done;
      let last = ref (ncand - 1) in
      while
        !last >= 0
        && (I.compare cp.(!last) cq.(!last) > 0
           || I.compare (I.mul cp.(!last) tk) (I.mul dk cq.(!last)) > 0)
      do
        decr last
      done;
      (* b_i for lambda = p/q, with dq = q D_k; light.(i) is the factor
         C_i max(D_k, D_k - D_i + T_i) of the case C_i/T_i <= lambda *)
      let light = Array.init n (fun i -> I.mul c.(i) (max dk (I.add (I.sub dk d.(i)) t.(i)))) in
      let beta ~p ~q ~dq i =
        let cq_ = I.mul c.(i) q in
        if I.compare cq_ (I.mul p t.(i)) <= 0 then I.mul light.(i) q
        else begin
          let pd = I.mul p d.(i) in
          if I.compare pd cq_ >= 0 then I.mul c.(i) dq else I.add (I.mul c.(i) dq) (I.mul t.(i) (I.sub cq_ pd))
        end
      in
      (* A_i min(b_i, T_i cap) / T_i = min(A_i b_i / T_i, A_i cap): with
         f and r the floor and remainder of the first, a term adds f
         (inexact iff r <> 0) while f < A_i cap, and A_i cap (exact)
         otherwise.  [exact_sums] returns S = sum of the floors and the
         remainders as one numerator over L: F = sum r (L / T_i). *)
      let exact_sums ~p ~q ~cap =
        let _, cof = Lazy.force exact in
        let dq = I.mul dk q in
        let s = ref zero and f = ref Bignum.zero in
        for i = 0 to n - 1 do
          let x = I.mul a.(i) (beta ~p ~q ~dq i) and y = I.mul a.(i) cap in
          let fl = I.fdiv x t.(i) in
          if I.compare fl y < 0 then begin
            s := I.add !s fl;
            let r = I.sub x (I.mul fl t.(i)) in
            if I.compare r zero <> 0 then f := Bignum.add !f (Bignum.mul (I.to_bignum r) cof.(i))
          end
          else s := I.add !s y
        done;
        (I.to_bignum !s, !f)
      in
      (* S + F/L < r *)
      let exact_below ~p ~q ~cap ~r () =
        let l, _ = Lazy.force exact in
        let s, f = exact_sums ~p ~q ~cap in
        Bignum.compare f (Bignum.mul (Bignum.sub (I.to_bignum r) s) l) < 0
      in
      (* the printed lhs (S + F/L) / (q D_k).  With f/l = F/L in lowest
         terms, S l + f is coprime to l, so only q D_k can share a
         factor with it: one gcd over residues mod q D_k normalizes *)
      let lhs ~p ~q ~cap =
        let l, _ = Lazy.force exact in
        let s, f = exact_sums ~p ~q ~cap in
        let g = Bignum.gcd f l in
        let f = Bignum.div f g and l = Bignum.div l g in
        let dq = I.to_bignum (I.mul dk q) in
        let r = Bignum.add (Bignum.mul (Bignum.rem s dq) (Bignum.rem l dq)) f in
        let g = Bignum.gcd (Bignum.rem r dq) dq in
        Rat.make (Bignum.div (Bignum.add (Bignum.mul s l) f) g) (Bignum.mul l (Bignum.div dq g))
      in
      let over_dq r q = Rat.make (I.to_bignum r) (I.to_bignum (I.mul dk q)) in
      (* is [x]'s condition-2 margin (lhs - rhs, over q D_k) below [b]'s?
         Each margin times q_x q_b D_k lies in an interval from the
         floors; only overlapping intervals need the exact sums. *)
      let closer x b =
        let lo_x = I.mul x.delta b.q and lo_b = I.mul b.delta x.q in
        let hi_x = I.mul (I.add x.delta (I.of_int x.cnt)) b.q in
        let hi_b = I.mul (I.add b.delta (I.of_int b.cnt)) x.q in
        if x.cnt = 0 && b.cnt = 0 then I.compare lo_x lo_b < 0
        else if I.compare hi_x lo_b <= 0 then true
        else if I.compare lo_x hi_b >= 0 then false
        else begin
          let l, _ = Lazy.force exact in
          (* (lhs - rhs) q D_k L *)
          let margin y =
            let s, f = exact_sums ~p:y.p ~q:y.q ~cap:(I.mul dk y.q) in
            Bignum.add (Bignum.mul (Bignum.sub s (I.to_bignum y.r2)) l) f
          in
          Bignum.compare (Bignum.mul (margin x) (I.to_bignum b.q)) (Bignum.mul (margin b) (I.to_bignum x.q)) < 0
        end
      in
      let rec walk ci best =
        if ci > !last then begin
          match best with
          | Some b ->
            check_closest ~k
              ~lambda:(Rat.make (I.to_bignum b.p) (I.to_bignum b.q))
              ~lhs:(lhs ~p:b.p ~q:b.q ~cap:(I.mul dk b.q))
              ~rhs:(over_dq b.r2 b.q)
          | None -> check_no_candidate ~k
        end
        else begin
          let p = cp.(ci) and q = cq.(ci) in
          incr evals;
          let dq = I.mul dk q in
          let w = I.sub dq (I.mul p mk) in
          (* both conditions' S and inexact-term counts in one pass *)
          let s1 = ref zero and n1 = ref 0 and s2 = ref zero and n2 = ref 0 in
          for i = 0 to n - 1 do
            let x = I.mul a.(i) (beta ~p ~q ~dq i) in
            let fl = I.fdiv x t.(i) in
            let inexact = I.compare x (I.mul fl t.(i)) <> 0 in
            let y1 = I.mul a.(i) w and y2 = I.mul a.(i) dq in
            if I.compare fl y1 < 0 then begin
              s1 := I.add !s1 fl;
              if inexact then incr n1
            end
            else s1 := I.add !s1 y1;
            if I.compare fl y2 < 0 then begin
              s2 := I.add !s2 fl;
              if inexact then incr n2
            end
            else s2 := I.add !s2 y2
          done;
          let lambda () = Rat.make (I.to_bignum p) (I.to_bignum q) in
          let r1 = I.mul abnd w in
          if below ~s:!s1 ~cnt:!n1 ~r:r1 (exact_below ~p ~q ~cap:w ~r:r1) then
            check_cond ~cond:"1" ~k ~lambda:(lambda ()) ~lhs:(lhs ~p ~q ~cap:w) ~rhs:(over_dq r1 q)
          else begin
            let r2 = I.add (I.mul (I.sub abnd amin) w) (I.mul amin dq) in
            if below ~s:!s2 ~cnt:!n2 ~r:r2 (exact_below ~p ~q ~cap:dq ~r:r2) then
              check_cond ~cond:"2" ~k ~lambda:(lambda ()) ~lhs:(lhs ~p ~q ~cap:dq) ~rhs:(over_dq r2 q)
            else begin
              let x = { p; q; r2; delta = I.sub !s2 r2; cnt = !n2 } in
              let best = match best with Some b when not (closer x b) -> best | _ -> Some x in
              walk (ci + 1) best
            end
          end
        end
      in
      walk !first None
    in
    let checks = List.init n check in
    (checks, !evals)
end

module Fast = Make (Ticks.Checked)
module Wide = Make (Ticks.Wide)

let decide_one ~fpga_area ts =
  let test_name = "GN2" in
  let cols = Columns.of_taskset ts in
  if Array.fold_left max 0 cols.Columns.area > fpga_area then
    Verdict.reject_all_n ~test_name ~note:wider_note cols.Columns.n
  else begin
    (* counted once the decide has succeeded, so an overflowing native
       run adds nothing *)
    let checks, evals =
      Ticks.run ~fast:(Fast.checks ~fpga_area) ~wide:(Wide.checks ~fpga_area) cols
    in
    Obs.Counter.add m_lambda_evals evals;
    Verdict.make ~test_name ~checks
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn2.decide" (fun () -> decide_one ~fpga_area ts)

let accepts ~fpga_area ts = Verdict.accepted (decide ~fpga_area ts)
