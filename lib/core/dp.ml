module Columns = Model.Taskset.Columns

let applicable ts = Model.Taskset.all_implicit_deadline ts

let wider_note = "a task is wider than the FPGA"
let implicit_note = "DP assumes implicit deadlines (D = T)"
let plus_one_note = "US(Gamma) vs (A(H)-Amax+1)(1-UT_k)+US_k"
let original_note = "US(Gamma) vs (A(H)-Amax)(1-UT_k)+US_k"

module Fast = Dp_ranged.Make (Ticks.Checked)
module Wide = Dp_ranged.Make (Ticks.Wide)

(* The range check of dp_checks.ml.  With M the largest tick, A the
   larger of A(H) and Amax, and L = lcm(T_i):
   - the partial lcms and the cofactors L / T_i are at most L;
   - each A_i C_i (L / T_i) is at most A M L, so U <= N A M L;
   - a <= A(H) - Amax + 1 <= A, so |r_k| <= a |T_k - C_k| + A_k C_k
     <= 2 A M, and |r_k (L / T_k)| <= 2 A M L;
   - [ratio] divides these by their gcd.
   So every intermediate is at most (N + 2) A M L. *)
let bound ~fpga_area (cols : Columns.t) =
  let open Ticks.Checked in
  let a = max fpga_area (Array.fold_left max 0 cols.area) in
  mul (mul (of_int (cols.n + 2)) a) (mul (Ticks.max_tick cols) (Ticks.lcm cols.period))

let decide_one ~test_name ~plus_one ~fpga_area ts =
  let cols = Columns.of_taskset ts in
  let n = cols.Columns.n in
  let amax = Array.fold_left max 0 cols.Columns.area in
  if amax > fpga_area then Verdict.reject_all_n ~test_name ~note:wider_note n
  else if not (applicable ts) then Verdict.reject_all_n ~test_name ~note:implicit_note n
  else begin
    let a = fpga_area - amax + if plus_one then 1 else 0 in
    let note = if plus_one then plus_one_note else original_note in
    Verdict.make ~test_name
      ~checks:
        (Ticks.run ~bound:(bound ~fpga_area) ~native:(Dp_ranged.Native.checks ~a ~note)
           ~fast:(Fast.checks ~a ~note) ~wide:(Wide.checks ~a ~note) cols)
  end

let decide ~fpga_area ts =
  Obs.Span.with_ ~name:"core.dp.decide" (fun () ->
      decide_one ~test_name:"DP" ~plus_one:true ~fpga_area ts)

let decide_original ~fpga_area ts = decide_one ~test_name:"DP-original" ~plus_one:false ~fpga_area ts
