(* DP's checks over I : Ticks.INT, compiled as Dp_ranged.Native and
   Dp_ranged.Wide (lib/core/dune); dp.ml bounds their intermediates.

   US(Gamma) = U / L with L = lcm(T_i) and U = sum A_i C_i (L / T_i),
   once per taskset.  Check k's bound is r_k / T_k with
   r_k = a (T_k - C_k) + A_k C_k, so US <= bound iff U <= r_k (L / T_k). *)
let checks ~a ~note (cols : Model.Taskset.Columns.t) =
  let n = cols.n and area = cols.area in
  let c = Array.map I.of_int cols.exec and t = Array.map I.of_int cols.period in
  let l = Array.fold_left (fun l ti -> I.mul (I.div l (I.gcd l ti)) ti) (I.of_int 1) t in
  let cof = Array.map (fun ti -> I.div l ti) t in
  let u = ref (I.of_int 0) in
  for i = 0 to n - 1 do
    u := I.add !u (I.mul (I.mul (I.of_int area.(i)) c.(i)) cof.(i))
  done;
  let u = !u in
  let us = I.ratio u l in
  let a = I.of_int a in
  List.init n (fun k ->
      let r = I.add (I.mul a (I.sub t.(k) c.(k))) (I.mul (I.of_int area.(k)) c.(k)) in
      {
        Verdict.task_index = k;
        satisfied = I.compare u (I.mul r cof.(k)) <= 0;
        lhs = us;
        rhs = I.ratio r t.(k);
        note;
      })
