module Columns = Model.Taskset.Columns

let wider_note = "a task is wider than the FPGA"

(* Every term of check k is a ratio of ticks over D_i or D_k, so the
   lhs is one numerator over L = lcm(D_1..D_N), computed once per
   taskset together with the cofactors L / D_i; the rhs shares L. *)
module Make (I : Ticks.INT) = struct
  let zero = I.of_int 0
  let one = I.of_int 1

  let checks ~lemma3_form ~fpga_area (cols : Columns.t) =
    let n = cols.Columns.n and area = cols.Columns.area in
    let c = Array.map I.of_int cols.Columns.exec in
    let d = Array.map I.of_int cols.Columns.deadline in
    let t = Array.map I.of_int cols.Columns.period in
    let l = Array.fold_left (fun l di -> I.mul (I.fdiv l (I.gcd l di)) di) one d in
    let cof = Array.map (fun di -> I.fdiv l di) d in
    let l_big = I.to_bignum l in
    let check k =
      let dk = d.(k) in
      if I.compare c.(k) dk > 0 then
        (* C_k > D_k: no schedule can meet the deadline *)
        {
          Verdict.task_index = k;
          satisfied = false;
          lhs = Rat.make (I.to_bignum c.(k)) (I.to_bignum dk);
          rhs = Rat.one;
          note = "C_k > D_k";
        }
      else begin
        (* the slack 1 - C_k/D_k over L *)
        let slack = I.mul (I.sub dk c.(k)) cof.(k) in
        let num = ref zero in
        for i = 0 to n - 1 do
          if i <> k then begin
            (* N_i = max(0, floor((D_k - D_i)/T_i) + 1)  (Lemma 4) *)
            let ni = I.add (I.fdiv (I.sub dk d.(i)) t.(i)) one in
            let ni = if I.compare ni zero < 0 then zero else ni in
            (* beta_i = (N_i C_i + min(C_i, max(D_k - N_i T_i, 0))) / D_i *)
            let rest = I.sub dk (I.mul ni t.(i)) in
            let carry = if I.compare rest zero <= 0 then zero else if I.compare rest c.(i) < 0 then rest else c.(i) in
            let beta = I.mul (I.add (I.mul ni c.(i)) carry) cof.(i) in
            num := I.add !num (I.mul (I.of_int area.(i)) (if I.compare beta slack <= 0 then beta else slack))
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
          lhs = Rat.make (I.to_bignum !num) l_big;
          rhs = Rat.make (I.to_bignum (I.mul abnd (I.sub dk c.(k)))) (I.to_bignum dk);
          note = "";
        }
      end
    in
    List.init n check
end

module Fast = Make (Ticks.Checked)
module Wide = Make (Ticks.Wide)

let decide_one ~test_name ~lemma3_form ~fpga_area ts =
  let cols = Columns.of_taskset ts in
  if Array.fold_left max 0 cols.Columns.area > fpga_area then
    Verdict.reject_all_n ~test_name ~note:wider_note cols.Columns.n
  else
    Verdict.make ~test_name
      ~checks:
        (Ticks.run
           ~fast:(Fast.checks ~lemma3_form ~fpga_area)
           ~wide:(Wide.checks ~lemma3_form ~fpga_area)
           cols)

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn1.decide" (fun () ->
      decide_one ~test_name:"GN1" ~lemma3_form:true ~fpga_area ts)

let decide_printed ~fpga_area ts = decide_one ~test_name:"GN1-printed" ~lemma3_form:false ~fpga_area ts
