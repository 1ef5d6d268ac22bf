(* The exact-rational analyzers the int-tick decides in lib/core
   replaced, moved here verbatim as byte-identity references
   (test_columns.ml) and for the accessors the paper-table tests read
   intermediate values through ([Gn1.beta], [Gn2.evaluate_lambda], ...).

   [Dp.decide_reference], [Gn1.decide_reference] and
   [Gn2.decide_reference] are the record-path implementations,
   [Gn2.decide_exhaustive] evaluates every lambda candidate, and
   [Gn2.decide_cols] is the per-k event sweep over the exact-rational
   columnar view [Cols].  They count [core.gn2.lambda_evals] like the
   code they were. *)

open Core

(* the exact-rational record view of each task, formerly [Core.Params] *)
module Params = struct
  type task_q = { index : int; area : int; area_q : Rat.t; c : Rat.t; d : Rat.t; t : Rat.t }

  let of_task index (task : Model.Task.t) =
    {
      index;
      area = task.area;
      area_q = Rat.of_int task.area;
      c = Model.Time.to_rat task.exec;
      d = Model.Time.to_rat task.deadline;
      t = Model.Time.to_rat task.period;
    }

  let of_taskset ts = Array.of_list (List.mapi of_task (Model.Taskset.to_list ts))
  let time_utilization q = Rat.div q.c q.t
  let system_utilization q = Rat.mul (time_utilization q) q.area_q
  let density q = Rat.div q.c q.d
  let amax qs = Array.fold_left (fun acc q -> max acc q.area) 0 qs
  let amin qs = Array.fold_left (fun acc q -> min acc q.area) max_int qs
  let total_us qs = Array.fold_left (fun acc q -> Rat.add acc (system_utilization q)) Rat.zero qs
end

(* the exact-rational columnar view, formerly [Core.Params.Cols] *)
module Cols = struct
  type t = {
    n : int;
    area : int array;
    area_q : Rat.t array;
    c : Rat.t array;
    d : Rat.t array;
    t : Rat.t array;
    u : Rat.t array;
    dens : Rat.t array;
    amax : int;
    amin : int;
  }

  let of_columns (cols : Model.Taskset.Columns.t) =
    let n = cols.Model.Taskset.Columns.n in
    let rat_of_ticks x = Model.Time.to_rat (Model.Time.of_ticks x) in
    let area = cols.Model.Taskset.Columns.area in
    let c = Array.map rat_of_ticks cols.Model.Taskset.Columns.exec in
    let d = Array.map rat_of_ticks cols.Model.Taskset.Columns.deadline in
    let t = Array.map rat_of_ticks cols.Model.Taskset.Columns.period in
    {
      n;
      area;
      area_q = Array.map Rat.of_int area;
      c;
      d;
      t;
      u = Array.init n (fun i -> Rat.div c.(i) t.(i));
      dens = Array.init n (fun i -> Rat.div c.(i) d.(i));
      amax = Array.fold_left max 0 area;
      amin = Array.fold_left min max_int area;
    }

  let of_taskset ts = of_columns (Model.Taskset.Columns.of_taskset ts)
end

module Dp = struct
  let applicable ts = Model.Taskset.all_implicit_deadline ts

  let wider_note = "a task is wider than the FPGA"
  let implicit_note = "DP assumes implicit deadlines (D = T)"

  let bound_general ~plus_one ~fpga_area qs k =
    let q = qs.(k) in
    let a = fpga_area - Params.amax qs + if plus_one then 1 else 0 in
    let open Rat.Infix in
    (Rat.of_int a * (Rat.one - Params.time_utilization q)) + Params.system_utilization q

  (* record-path implementation *)
  let decide_general ~test_name ~plus_one ~fpga_area ts =
    let qs = Params.of_taskset ts in
    if Params.amax qs > fpga_area then Verdict.reject_all ~test_name ~note:wider_note ts
    else if not (applicable ts) then Verdict.reject_all ~test_name ~note:implicit_note ts
    else begin
      let us = Params.total_us qs in
      let checks =
        Array.to_list
          (Array.mapi
             (fun k _ ->
               let rhs = bound_general ~plus_one ~fpga_area qs k in
               {
                 Verdict.task_index = k;
                 satisfied = Rat.compare us rhs <= 0;
                 lhs = us;
                 rhs;
                 note = "US(Gamma) vs (A(H)-Amax" ^ (if plus_one then "+1" else "") ^ ")(1-UT_k)+US_k";
               })
             qs)
      in
      Verdict.make ~test_name ~checks
    end

  let decide_reference ~fpga_area ts = decide_general ~test_name:"DP" ~plus_one:true ~fpga_area ts
  let bound ~fpga_area ts ~k =
    let qs = Params.of_taskset ts in
    if k < 0 || k >= Array.length qs then invalid_arg "Dp.bound: task index out of range";
    bound_general ~plus_one:true ~fpga_area qs k
end

module Gn1 = struct
  let wider_note = "a task is wider than the FPGA"

  let check_indices qs ~k ~i =
    let n = Array.length qs in
    if k < 0 || k >= n || i < 0 || i >= n then invalid_arg "Gn1: task index out of range";
    if k = i then invalid_arg "Gn1: interference of a task on itself is undefined"

  (* N_i = max(0, floor((D_k - D_i)/T_i) + 1)  (Lemma 4) *)
  let n_jobs_q qs ~k ~i =
    let qi = qs.(i) and qk = qs.(k) in
    let f = Rat.floor (Rat.div (Rat.sub qk.Params.d qi.Params.d) qi.Params.t) in
    Bignum.max Bignum.zero (Bignum.succ f)

  (* beta_i = (N_i C_i + min(C_i, max(D_k - N_i T_i, 0))) / D_i *)
  let beta_q qs ~k ~i =
    let qi = qs.(i) and qk = qs.(k) in
    let ni = Rat.of_bignum (n_jobs_q qs ~k ~i) in
    let open Rat.Infix in
    let carry = Rat.min qi.Params.c (Rat.max (qk.Params.d - (ni * qi.Params.t)) Rat.zero) in
    ((ni * qi.Params.c) + carry) / qi.Params.d

  (* record-path implementation *)
  let decide_general ~test_name ~lemma3_form ~fpga_area ts =
    let qs = Params.of_taskset ts in
    if Params.amax qs > fpga_area then Verdict.reject_all ~test_name ~note:wider_note ts
    else begin
      let n = Array.length qs in
      let check k =
        let qk = qs.(k) in
        let slack = Rat.sub Rat.one (Params.density qk) in
        if Rat.sign slack < 0 then
          (* C_k > D_k: no schedule can meet the deadline *)
          {
            Verdict.task_index = k;
            satisfied = false;
            lhs = Params.density qk;
            rhs = Rat.one;
            note = "C_k > D_k";
          }
        else begin
          let lhs = ref Rat.zero in
          for i = 0 to n - 1 do
            if i <> k then begin
              let b = beta_q qs ~k ~i in
              lhs := Rat.add !lhs (Rat.mul qs.(i).Params.area_q (Rat.min b slack))
            end
          done;
          (* Both variants compare strictly.  The paper's Lemma 3 states a
             non-strict bound, but random testing against exact-hyperperiod
             simulation exhibits deadline misses precisely at the equality
             boundary (e.g. (C=7.921, D=T=8, A=10) + (C=7.301, D=T=10, A=1)
             on A(H)=10, where lhs = rhs = 2699/1000 and the second task
             misses at t=10), so the non-strict reading is unsound; see
             DESIGN.md section 2 and test_regressions.ml. *)
          let abnd = fpga_area - qk.Params.area + if lemma3_form then 1 else 0 in
          let rhs = Rat.mul (Rat.of_int abnd) slack in
          let satisfied = Rat.compare !lhs rhs < 0 in
          { Verdict.task_index = k; satisfied; lhs = !lhs; rhs; note = "" }
        end
      in
      Verdict.make ~test_name ~checks:(List.init n check)
    end

  let decide_reference ~fpga_area ts = decide_general ~test_name:"GN1" ~lemma3_form:true ~fpga_area ts
  let n_jobs ts ~k ~i =
    let qs = Params.of_taskset ts in
    check_indices qs ~k ~i;
    n_jobs_q qs ~k ~i

  let beta ts ~k ~i =
    let qs = Params.of_taskset ts in
    check_indices qs ~k ~i;
    beta_q qs ~k ~i
end

module Gn2 = struct
  (* beta^lambda_k(i) as in Lemma 7, with the paper's middle-case typo
     (C_k/T_k) corrected to C_i/T_i; see DESIGN.md section 2. *)
  let beta_lambda_q qs ~k ~i ~lambda =
    let qi = qs.(i) and qk = qs.(k) in
    let ui = Params.time_utilization qi in
    let dens_i = Params.density qi in
    let light = Rat.compare ui lambda <= 0 in
    let finishes = Rat.compare lambda dens_i >= 0 in
    let open Rat.Infix in
    if light then
      Rat.max ui ((ui * (Rat.one - (qi.Params.d / qk.Params.d))) + (qi.Params.c / qk.Params.d))
    else if finishes then ui
    else ui + ((qi.Params.c - (lambda * qi.Params.d)) / qk.Params.d)

  (* lambda_k = lambda * max(1, T_k/D_k) *)
  let lambda_k_of qk lambda =
    Rat.mul lambda (Rat.max Rat.one (Rat.div qk.Params.t qk.Params.d))

  (* The only candidates are the discontinuity points of beta named by the
     paper's complexity discussion: lambda = C_i/T_i for every i, plus
     C_i/D_i when D_i > T_i, restricted to lambda >= C_k/T_k (Theorem 3) and
     lambda_k <= 1 (beyond which both conditions are vacuous).  Adding other
     points — e.g. the upper interval end — would change decisions: at
     lambda_k = 1 condition 2 degenerates to [sum < Amin] and would wrongly
     accept the paper's Table 1. *)
  let lambda_candidates_q qs ~k =
    let qk = qs.(k) in
    let lo = Params.time_utilization qk in
    let hi = Rat.min Rat.one (Rat.div qk.Params.d qk.Params.t) in
    let discontinuities =
      Array.to_list qs
      |> List.concat_map (fun qi ->
             let ui = Params.time_utilization qi in
             if Rat.compare qi.Params.d qi.Params.t > 0 then [ ui; Params.density qi ] else [ ui ])
    in
    let in_range l = Rat.compare l lo >= 0 && Rat.compare l hi <= 0 in
    let all = List.filter in_range discontinuities in
    List.sort_uniq Rat.compare all

  type lambda_eval = {
    lambda : Rat.t;
    lambda_k : Rat.t;
    cond1_lhs : Rat.t;
    cond1_rhs : Rat.t;
    cond1 : bool;
    cond2_lhs : Rat.t;
    cond2_rhs : Rat.t;
    cond2 : bool;
  }

  (* candidates actually evaluated: the observable cost of the O(N^3)
     test (each evaluation is an O(N) beta sweep) *)
  let m_lambda_evals = Obs.Counter.make "core.gn2.lambda_evals"

  let evaluate_lambda_q ~fpga_area qs ~k ~lambda =
    Obs.Counter.incr m_lambda_evals;
    let qk = qs.(k) in
    let lambda_k = lambda_k_of qk lambda in
    let abnd = Rat.of_int (fpga_area - Params.amax qs + 1) in
    let amin = Rat.of_int (Params.amin qs) in
    let open Rat.Infix in
    let one_minus = Rat.one - lambda_k in
    (* one pass computes both condition sums: beta is the expensive part *)
    let cond1_lhs, cond2_lhs =
      Array.fold_left
        (fun (s1, s2) qi ->
          let b = beta_lambda_q qs ~k ~i:qi.Params.index ~lambda in
          ( s1 + (qi.Params.area_q * Rat.min b one_minus),
            s2 + (qi.Params.area_q * Rat.min b Rat.one) ))
        (Rat.zero, Rat.zero) qs
    in
    let cond1_rhs = abnd * one_minus in
    let cond2_rhs = ((abnd - amin) * one_minus) + amin in
    let cond1 = Stdlib.( < ) (Rat.compare cond1_lhs cond1_rhs) 0 in
    let cond2 = Stdlib.( < ) (Rat.compare cond2_lhs cond2_rhs) 0 in
    { lambda; lambda_k; cond1_lhs; cond1_rhs; cond1; cond2_lhs; cond2_rhs; cond2 }

  let wider_note = "a task is wider than the FPGA"

  (* The per-task check records are built by these four constructors so the
     reference search, the exhaustive variant and the columnar sweep below
     cannot drift apart in their printed bytes. *)
  let check_cond1 ~k ~lambda ~lhs ~rhs =
    {
      Verdict.task_index = k;
      satisfied = true;
      lhs;
      rhs;
      note = Format.asprintf "condition 1 at lambda=%a" Rat.pp lambda;
    }

  let check_cond2 ~k ~lambda ~lhs ~rhs =
    {
      Verdict.task_index = k;
      satisfied = true;
      lhs;
      rhs;
      note = Format.asprintf "condition 2 at lambda=%a" Rat.pp lambda;
    }

  let check_closest ~k ~lambda ~lhs ~rhs =
    {
      Verdict.task_index = k;
      satisfied = false;
      lhs;
      rhs;
      note = Format.asprintf "no lambda works; closest lambda=%a" Rat.pp lambda;
    }

  let check_no_candidate ~k =
    {
      Verdict.task_index = k;
      satisfied = false;
      lhs = Rat.zero;
      rhs = Rat.zero;
      note = "no lambda candidate in range";
    }

  (* record-path implementation *)
  let decide_reference ~fpga_area ts =
    let test_name = "GN2" in
    let qs = Params.of_taskset ts in
    if Params.amax qs > fpga_area then Verdict.reject_all ~test_name ~note:wider_note ts
    else begin
      let check k =
        let candidates = lambda_candidates_q qs ~k in
        let rec search best = function
          | [] -> (
            (* rejected: report the evaluation that came closest on cond 2 *)
            match best with
            | Some ev -> check_closest ~k ~lambda:ev.lambda ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
            | None -> check_no_candidate ~k)
          | lambda :: rest ->
            let ev = evaluate_lambda_q ~fpga_area qs ~k ~lambda in
            if ev.cond1 then check_cond1 ~k ~lambda ~lhs:ev.cond1_lhs ~rhs:ev.cond1_rhs
            else if ev.cond2 then check_cond2 ~k ~lambda ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
            else begin
              let better =
                match best with
                | None -> true
                | Some b ->
                  Rat.compare (Rat.sub ev.cond2_lhs ev.cond2_rhs) (Rat.sub b.cond2_lhs b.cond2_rhs) < 0
              in
              search (if better then Some ev else best) rest
            end
        in
        search None candidates
      in
      Verdict.make ~test_name ~checks:(List.init (Array.length qs) check)
    end

  (* Ablation twin of decide_reference that evaluates *every* candidate
     before deciding.  Verdicts (accept/reject, sides, notes) are
     byte-identical — only the core.gn2.lambda_evals counter differs,
     which is what makes the early-exit pruning observable. *)
  let decide_exhaustive ~fpga_area ts =
    let test_name = "GN2" in
    let qs = Params.of_taskset ts in
    if Params.amax qs > fpga_area then Verdict.reject_all ~test_name ~note:wider_note ts
    else begin
      let check k =
        let evs =
          List.map
            (fun lambda -> evaluate_lambda_q ~fpga_area qs ~k ~lambda)
            (lambda_candidates_q qs ~k)
        in
        let rec scan best = function
          | [] -> (
            match best with
            | Some ev -> check_closest ~k ~lambda:ev.lambda ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
            | None -> check_no_candidate ~k)
          | ev :: rest ->
            if ev.cond1 then check_cond1 ~k ~lambda:ev.lambda ~lhs:ev.cond1_lhs ~rhs:ev.cond1_rhs
            else if ev.cond2 then check_cond2 ~k ~lambda:ev.lambda ~lhs:ev.cond2_lhs ~rhs:ev.cond2_rhs
            else begin
              let better =
                match best with
                | None -> true
                | Some b ->
                  Rat.compare (Rat.sub ev.cond2_lhs ev.cond2_rhs) (Rat.sub b.cond2_lhs b.cond2_rhs) < 0
              in
              scan (if better then Some ev else best) rest
            end
        in
        scan None evs
      in
      Verdict.make ~test_name ~checks:(List.init (Array.length qs) check)
    end

  (* --- columnar sweep ---------------------------------------------------

     Lemma 7's beta is, for fixed k, a hinge in lambda:

       beta_i(lambda) = max(K_i, A_i - B_i lambda)
         A_i = u_i + C_i/D_k      B_i = D_i/D_k
         K_i = u_i + smax_i/D_k   smax_i = max(C_i - u_i D_i, 0)

     (the three printed cases coincide with this: the descending branch
     A_i - B_i lambda is active for lambda <= kink_i and the constant K_i
     beyond, where kink_i = u_i when D_i <= T_i and C_i/D_i otherwise).
     Both condition sums are therefore piecewise-linear in lambda, so per k
     we classify each task's min(...) term once per breakpoint interval,
     turn piece changes into (delta-slope, delta-intercept) events, and
     evaluate every candidate in O(1) from running linear coefficients.
     Together with the single globally-sorted candidate array (built once
     per taskset, sliced per k) this replaces the O(N) beta sweep per
     candidate: O(N^2 log N) per taskset instead of O(N^3).

     Piece classification samples the exact-rational midpoint of each
     subinterval; continuity of min/max of linear functions makes the
     sampled piece valid on the closed subinterval, so candidates sitting
     exactly on a breakpoint get the same value either side.  All
     arithmetic stays in Rat, so every lhs/rhs is value-equal — hence
     byte-identical once printed — to the reference fold above. *)

  type pre = {
    p : Cols.t;
    kink : Rat.t array;  (* where beta_i's descending branch meets K_i *)
    smax : Rat.t array;  (* max(C_i - u_i D_i, 0) *)
    cands : Rat.t array;  (* all discontinuity points, sorted, unique *)
  }

  let precompute (p : Cols.t) =
    let n = p.Cols.n in
    let c = p.Cols.c and d = p.Cols.d and t = p.Cols.t in
    let u = p.Cols.u and dens = p.Cols.dens in
    let kink = Array.init n (fun i -> if Rat.compare d.(i) t.(i) <= 0 then u.(i) else dens.(i)) in
    let smax =
      Array.init n (fun i ->
          if Rat.compare d.(i) t.(i) <= 0 then Rat.sub c.(i) (Rat.mul u.(i) d.(i)) else Rat.zero)
    in
    let disc = ref [] in
    for i = n - 1 downto 0 do
      if Rat.compare d.(i) t.(i) > 0 then disc := dens.(i) :: !disc;
      disc := u.(i) :: !disc
    done;
    let cands = Array.of_list (List.sort_uniq Rat.compare !disc) in
    { p; kink; smax; cands }

  type event = { at : Rat.t; dp1 : Rat.t; dq1 : Rat.t; dp2 : Rat.t; dq2 : Rat.t }

  let sweep_k ~abnd ~aminq pre k =
    let p = pre.p in
    let n = p.Cols.n in
    let u = p.Cols.u and c = p.Cols.c and d = p.Cols.d in
    let t = p.Cols.t and area_q = p.Cols.area_q in
    let lo = u.(k) in
    let hi = Rat.min Rat.one (Rat.div d.(k) t.(k)) in
    (* candidate slice [first, last] of the global sorted array *)
    let ncand = Array.length pre.cands in
    let first = ref 0 in
    while !first < ncand && Rat.compare pre.cands.(!first) lo < 0 do
      incr first
    done;
    let last = ref (ncand - 1) in
    while !last >= 0 && Rat.compare pre.cands.(!last) hi > 0 do
      decr last
    done;
    if !first > !last then check_no_candidate ~k
    else begin
      let dk = d.(k) in
      let inv_dk = Rat.inv dk in
      let mk = Rat.max Rat.one (Rat.div t.(k) dk) in
      let neg_mk = Rat.neg mk in
      let two = Rat.of_int 2 in
      (* running linear coefficients: on the current piece,
         cond1_lhs = p1 + q1*lambda and cond2_lhs = p2 + q2*lambda *)
      let p1 = ref Rat.zero and q1 = ref Rat.zero in
      let p2 = ref Rat.zero and q2 = ref Rat.zero in
      let events = ref [] in
      for i = 0 to n - 1 do
        let ai = area_q.(i) in
        let a_ = Rat.add u.(i) (Rat.mul c.(i) inv_dk) in
        let b_ = Rat.mul d.(i) inv_dk in
        let neg_b = Rat.neg b_ in
        let k_ = Rat.add u.(i) (Rat.mul pre.smax.(i) inv_dk) in
        let kink = pre.kink.(i) in
        let eval (pp, qq) x = Rat.add pp (Rat.mul qq x) in
        (* active branch of the beta hinge at sample point x *)
        let beta_piece x = if Rat.compare x kink <= 0 then (a_, neg_b) else (k_, Rat.zero) in
        (* term of cond 1: min(beta_i, 1 - mk*lambda) *)
        let classify1 x =
          let g = beta_piece x in
          if Rat.compare (eval g x) (Rat.sub Rat.one (Rat.mul mk x)) <= 0 then g else (Rat.one, neg_mk)
        in
        (* term of cond 2: min(beta_i, 1) *)
        let classify2 x =
          let g = beta_piece x in
          if Rat.compare (eval g x) Rat.one <= 0 then g else (Rat.one, Rat.zero)
        in
        (* candidate breakpoints: the hinge plus each branch's crossing
           with the min partner.  Spurious points (crossings outside the
           active branch) only cost a zero-delta event. *)
        let bps1 =
          let base = [ kink; Rat.div (Rat.sub Rat.one k_) mk ] in
          if Rat.equal b_ mk then base
          else Rat.div (Rat.sub a_ Rat.one) (Rat.sub b_ mk) :: base
        in
        let bps2 = [ kink; Rat.div (Rat.sub a_ Rat.one) b_ ] in
        let add_term ~cond1 classify bps pref qref =
          let pts =
            List.sort_uniq Rat.compare
              (List.filter (fun b -> Rat.compare b lo > 0 && Rat.compare b hi < 0) bps)
          in
          let sample x y = if Rat.equal x y then x else Rat.div (Rat.add x y) two in
          let first_piece = classify (sample lo (match pts with [] -> hi | b :: _ -> b)) in
          pref := Rat.add !pref (Rat.mul ai (fst first_piece));
          qref := Rat.add !qref (Rat.mul ai (snd first_piece));
          let rec go (cp, cq) = function
            | [] -> ()
            | b :: rest ->
              let right = match rest with [] -> hi | r :: _ -> r in
              let np, nq = classify (sample b right) in
              if not (Rat.equal np cp && Rat.equal nq cq) then begin
                let dp = Rat.mul ai (Rat.sub np cp) and dq = Rat.mul ai (Rat.sub nq cq) in
                events :=
                  (if cond1 then { at = b; dp1 = dp; dq1 = dq; dp2 = Rat.zero; dq2 = Rat.zero }
                   else { at = b; dp1 = Rat.zero; dq1 = Rat.zero; dp2 = dp; dq2 = dq })
                  :: !events
              end;
              go (np, nq) rest
          in
          go first_piece pts
        in
        add_term ~cond1:true classify1 bps1 p1 q1;
        add_term ~cond1:false classify2 bps2 p2 q2
      done;
      let evs = Array.of_list !events in
      Array.sort (fun e1 e2 -> Rat.compare e1.at e2.at) evs;
      let ne = Array.length evs in
      let ei = ref 0 in
      (* best-so-far for the reject note: (lambda, cond2_lhs, cond2_rhs, margin) *)
      let rec search best ci =
        if ci > !last then begin
          match best with
          | Some (lambda, lhs, rhs, _) -> check_closest ~k ~lambda ~lhs ~rhs
          | None -> check_no_candidate ~k (* unreachable: the slice is non-empty *)
        end
        else begin
          let lambda = pre.cands.(ci) in
          while !ei < ne && Rat.compare evs.(!ei).at lambda <= 0 do
            let e = evs.(!ei) in
            p1 := Rat.add !p1 e.dp1;
            q1 := Rat.add !q1 e.dq1;
            p2 := Rat.add !p2 e.dp2;
            q2 := Rat.add !q2 e.dq2;
            incr ei
          done;
          Obs.Counter.incr m_lambda_evals;
          let one_minus = Rat.sub Rat.one (Rat.mul lambda mk) in
          let cond1_lhs = Rat.add !p1 (Rat.mul !q1 lambda) in
          let cond1_rhs = Rat.mul abnd one_minus in
          if Rat.compare cond1_lhs cond1_rhs < 0 then check_cond1 ~k ~lambda ~lhs:cond1_lhs ~rhs:cond1_rhs
          else begin
            let cond2_lhs = Rat.add !p2 (Rat.mul !q2 lambda) in
            let cond2_rhs = Rat.add (Rat.mul (Rat.sub abnd aminq) one_minus) aminq in
            if Rat.compare cond2_lhs cond2_rhs < 0 then
              check_cond2 ~k ~lambda ~lhs:cond2_lhs ~rhs:cond2_rhs
            else begin
              let margin = Rat.sub cond2_lhs cond2_rhs in
              let best =
                match best with
                | Some (_, _, _, bm) when Rat.compare margin bm >= 0 -> best
                | _ -> Some (lambda, cond2_lhs, cond2_rhs, margin)
              in
              search best (ci + 1)
            end
          end
        end
      in
      search None !first
    end

  let decide_cols ~fpga_area (p : Cols.t) =
    let test_name = "GN2" in
    if p.Cols.amax > fpga_area then
      Verdict.reject_all_n ~test_name ~note:wider_note p.Cols.n
    else begin
      let pre = precompute p in
      let abnd = Rat.of_int (fpga_area - p.Cols.amax + 1) in
      let aminq = Rat.of_int p.Cols.amin in
      Verdict.make ~test_name ~checks:(List.init p.Cols.n (sweep_k ~abnd ~aminq pre))
    end

  let decide_sweep ~fpga_area ts = decide_cols ~fpga_area (Cols.of_taskset ts)

  let check_k qs k = if k < 0 || k >= Array.length qs then invalid_arg "Gn2: task index out of range"

  let lambda_candidates ts ~k =
    let qs = Params.of_taskset ts in
    check_k qs k;
    lambda_candidates_q qs ~k

  let beta_lambda ts ~k ~i ~lambda =
    let qs = Params.of_taskset ts in
    check_k qs k;
    check_k qs i;
    beta_lambda_q qs ~k ~i ~lambda

  let evaluate_lambda ~fpga_area ts ~k ~lambda =
    let qs = Params.of_taskset ts in
    check_k qs k;
    evaluate_lambda_q ~fpga_area qs ~k ~lambda
end
