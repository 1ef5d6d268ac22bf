(* GN1's checks over I : Ticks.INT, compiled as Gn1_ranged.Native and
   Gn1_ranged.Wide (lib/core/dune); gn1.ml bounds their
   intermediates.

   Every term of check k is a ratio of ticks over D_i or D_k, so the
   lhs is one numerator over L = lcm(D_1..D_N), computed once per
   taskset together with the cofactors L / D_i; the rhs shares L. *)
let zero = I.of_int 0
let one = I.of_int 1

let checks ~lemma3_form ~fpga_area (cols : Model.Taskset.Columns.t) =
  let n = cols.n and area = cols.area in
  let c = Array.map I.of_int cols.exec in
  let d = Array.map I.of_int cols.deadline in
  let t = Array.map I.of_int cols.period in
  let l = Array.fold_left (fun l di -> I.mul (I.div l (I.gcd l di)) di) one d in
  let cof = Array.map (fun di -> I.div l di) d in
  let check k =
    let dk = d.(k) in
    if I.compare c.(k) dk > 0 then
      (* C_k > D_k: no schedule can meet the deadline *)
      {
        Verdict.task_index = k;
        satisfied = false;
        lhs = I.ratio c.(k) dk;
        rhs = Rat.one;
        note = "C_k > D_k";
      }
    else begin
      (* the slack 1 - C_k/D_k over L *)
      let slack = I.mul (I.sub dk c.(k)) cof.(k) in
      let num = ref zero in
      for i = 0 to n - 1 do
        if i <> k then begin
          (* N_i = max(0, floor((D_k - D_i)/T_i) + 1)  (Lemma 4), which
             is 0 exactly when D_k < D_i *)
          let ni = if I.compare dk d.(i) < 0 then zero else I.add (I.div (I.sub dk d.(i)) t.(i)) one in
          (* beta_i = w / D_i with w = N_i C_i + min(C_i, max(D_k - N_i T_i, 0)) *)
          let rest = I.sub dk (I.mul ni t.(i)) in
          let carry = if I.compare rest zero <= 0 then zero else if I.compare rest c.(i) < 0 then rest else c.(i) in
          let w = I.add (I.mul ni c.(i)) carry in
          (* min(beta_i, slack) over L: beta_i is w (L / D_i), which
             exceeds L >= slack once w > D_i, so the product is formed
             only where it is at most L *)
          let capped =
            if I.compare w d.(i) > 0 then slack
            else begin
              let beta = I.mul w cof.(i) in
              if I.compare beta slack <= 0 then beta else slack
            end
          in
          num := I.add !num (I.mul (I.of_int area.(i)) capped)
        end
      done;
      (* Both variants compare strictly.  The paper's Lemma 3 states a
         non-strict bound, but random testing against exact-hyperperiod
         simulation exhibits deadline misses precisely at the equality
         boundary (e.g. (C=7.921, D=T=8, A=10) + (C=7.301, D=T=10, A=1)
         on A(H)=10, where lhs = rhs = 2699/1000 and the second task
         misses at t=10), so the non-strict reading is unsound; see
         DESIGN.md section 2 and test_regressions.ml. *)
      let abnd = I.of_int (fpga_area - area.(k) + if lemma3_form then 1 else 0) in
      {
        Verdict.task_index = k;
        satisfied = I.compare !num (I.mul abnd slack) < 0;
        lhs = I.ratio !num l;
        rhs = I.ratio (I.mul abnd (I.sub dk c.(k))) dk;
        note = "";
      }
    end
  in
  List.init n check
