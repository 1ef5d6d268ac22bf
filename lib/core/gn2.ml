module Columns = Model.Taskset.Columns

let wider_note = "a task is wider than the FPGA"

(* candidates actually evaluated: the observable cost of the O(N^3)
   test (each evaluation is an O(N) beta sweep) *)
let m_lambda_evals = Obs.Counter.make "core.gn2.lambda_evals"

(* The range check of gn2_checks.ml.  With M the largest tick and A
   the larger of A(H) and Amax:
   - a candidate p/q has p, q <= M; the products that order candidates
     and bound the slice, q D_k, p M_k and w = q D_k - p M_k (which
     lies in [0, M^2]) are at most M^2;
   - light_i = C_i max(D_k, D_k - D_i + T_i) < 2 M^2, so b_i is at
     most 2 M^3 in every case of [beta], and A_i b_i at most 2 A M^3;
   - A_i w and A_i q D_k are at most A M^2, so each floor sum S, a
     sum of N terms each at most one of those, is at most N A M^2;
   - Abnd and Amin are at most A: |r1| <= A M^2, |r2| <= 2 A M^2, and
     |delta| = |S2 - r2| <= (N + 2) A M^2;
   - the closest-candidate comparison multiplies delta, or delta plus
     at most N inexact terms, by a q: at most (N + 2) A M^3 + N M.
   GN2's printed lhs uses its own checked ints (native_exact).  So
   every intermediate is at most (N + 2) A M^3 + N M. *)
let bound ~fpga_area (cols : Columns.t) =
  let open Ticks.Checked in
  let a = max fpga_area (Array.fold_left max 0 cols.area) and m = Ticks.max_tick cols in
  add (mul (mul (cols.n + 2) a) (mul m (mul m m))) (mul cols.n m)

let decide_one ~fpga_area ts =
  let test_name = "GN2" in
  let cols = Columns.of_taskset ts in
  if Array.fold_left max 0 cols.Columns.area > fpga_area then
    Verdict.reject_all_n ~test_name ~note:wider_note cols.Columns.n
  else begin
    (* both paths evaluate the same candidates *)
    let checks, evals =
      Ticks.run ~bound:(bound ~fpga_area) ~native:(Gn2_ranged.Native.checks ~fpga_area)
        ~wide:(Gn2_ranged.Wide.checks ~fpga_area) cols
    in
    Obs.Counter.add m_lambda_evals evals;
    Verdict.make ~test_name ~checks
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.gn2.decide" (fun () -> decide_one ~fpga_area ts)
