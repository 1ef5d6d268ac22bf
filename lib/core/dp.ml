module Columns = Model.Taskset.Columns

let applicable ts = Model.Taskset.all_implicit_deadline ts

let wider_note = "a task is wider than the FPGA"
let implicit_note = "DP assumes implicit deadlines (D = T)"

(* US(Gamma) = U / L with L = lcm(T_i) and U = sum A_i C_i (L / T_i),
   once per taskset.  Check k's bound is r_k / T_k with
   r_k = a (T_k - C_k) + A_k C_k, so US <= bound iff U <= r_k (L / T_k). *)
module Make (I : Ticks.INT) = struct
  let checks ~a ~note (cols : Columns.t) =
    let n = cols.Columns.n and area = cols.Columns.area in
    let c = Array.map I.of_int cols.Columns.exec and t = Array.map I.of_int cols.Columns.period in
    let l = Array.fold_left (fun l ti -> I.mul (I.fdiv l (I.gcd l ti)) ti) (I.of_int 1) t in
    let cof = Array.map (fun ti -> I.fdiv l ti) t in
    let u = ref (I.of_int 0) in
    for i = 0 to n - 1 do
      u := I.add !u (I.mul (I.mul (I.of_int area.(i)) c.(i)) cof.(i))
    done;
    let u = !u in
    let us = Rat.make (I.to_bignum u) (I.to_bignum l) in
    let a = I.of_int a in
    List.init n (fun k ->
        let r = I.add (I.mul a (I.sub t.(k) c.(k))) (I.mul (I.of_int area.(k)) c.(k)) in
        {
          Verdict.task_index = k;
          satisfied = I.compare u (I.mul r cof.(k)) <= 0;
          lhs = us;
          rhs = Rat.make (I.to_bignum r) (I.to_bignum t.(k));
          note;
        })
end

module Fast = Make (Ticks.Checked)
module Wide = Make (Ticks.Wide)

let decide_one ~test_name ~plus_one ~fpga_area ts =
  let cols = Columns.of_taskset ts in
  let n = cols.Columns.n in
  let amax = Array.fold_left max 0 cols.Columns.area in
  if amax > fpga_area then Verdict.reject_all_n ~test_name ~note:wider_note n
  else if not (applicable ts) then Verdict.reject_all_n ~test_name ~note:implicit_note n
  else begin
    let a = fpga_area - amax + if plus_one then 1 else 0 in
    let note = "US(Gamma) vs (A(H)-Amax" ^ (if plus_one then "+1" else "") ^ ")(1-UT_k)+US_k" in
    Verdict.make ~test_name ~checks:(Ticks.run ~fast:(Fast.checks ~a ~note) ~wide:(Wide.checks ~a ~note) cols)
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.dp.decide" (fun () ->
      decide_one ~test_name:"DP" ~plus_one:true ~fpga_area ts)

let accepts ~fpga_area ts = Verdict.accepted (decide ~fpga_area ts)
let decide_original ~fpga_area ts = decide_one ~test_name:"DP-original" ~plus_one:false ~fpga_area ts
let accepts_original ~fpga_area ts = Verdict.accepted (decide_original ~fpga_area ts)
