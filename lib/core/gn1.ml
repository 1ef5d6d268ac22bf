module Columns = Model.Taskset.Columns

let wider_note = "a task is wider than the FPGA"

module Fast = Gn1_ranged.Make (Ticks.Checked)
module Wide = Gn1_ranged.Make (Ticks.Wide)

(* The range check of gn1_checks.ml.  With M the largest tick, A the
   larger of A(H) and Amax, and L = lcm(D_i):
   - the partial lcms and the cofactors L / D_i are at most L, and
     the slack (D_k - C_k)(L / D_k) is at most L;
   - |D_k - D_i| < M, so N_i <= M and N_i T_i <= D_k - D_i + T_i < 2M;
     the rest D_k - N_i T_i and the carry lie within 2M;
   - w = N_i C_i + carry <= M^2 + M;
   - w (L / D_i) is formed only when w <= D_i, so it is at most L, and
     each A_i min(beta_i, slack) is at most A L: the lhs numerator is
     at most (N - 1) A L;
   - the bound constant A(H) - A_k + 1 is at most A: times the slack
     at most A L, times D_k - C_k at most A M;
   - [ratio] divides these by their gcd.
   So every intermediate is at most M (M + A + 1) + N A L. *)
let bound ~fpga_area (cols : Columns.t) =
  let open Ticks.Checked in
  let a = max fpga_area (Array.fold_left max 0 cols.area) and m = Ticks.max_tick cols in
  add (mul m (add m (add a 1))) (mul (mul cols.n a) (Ticks.lcm cols.deadline))

let decide_one ~test_name ~lemma3_form ~fpga_area ts =
  let cols = Columns.of_taskset ts in
  if Array.fold_left max 0 cols.Columns.area > fpga_area then
    Verdict.reject_all_n ~test_name ~note:wider_note cols.Columns.n
  else
    Verdict.make ~test_name
      ~checks:
        (Ticks.run ~bound:(bound ~fpga_area)
           ~native:(Gn1_ranged.Native.checks ~lemma3_form ~fpga_area)
           ~fast:(Fast.checks ~lemma3_form ~fpga_area)
           ~wide:(Wide.checks ~lemma3_form ~fpga_area)
           cols)

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn1.decide" (fun () ->
      decide_one ~test_name:"GN1" ~lemma3_form:true ~fpga_area ts)

let decide_printed ~fpga_area ts = decide_one ~test_name:"GN1-printed" ~lemma3_form:false ~fpga_area ts
