(* Executable audits of the paper's deferred lemmas (Sections 2-5) on
   real simulated schedules, using the Section-2 quantities computed by
   Measure (test/measure.ml).  The paper proves Lemmas 5-10 only in a
   technical report; here each statement is checked on hundreds of
   random traces. *)

module Time = Model.Time
module Engine = Sim.Engine

let check_bool = Alcotest.(check bool)
let ts = Core_helpers.taskset
let fpga_area = 10

let task_gen =
  QCheck2.Gen.(
    let* t_units = oneofl [ 2; 3; 4; 5 ] in
    let period = Time.of_units t_units in
    let* c_ticks = int_range 1 (Time.ticks period) in
    let* area = int_range 1 10 in
    return (Model.Task.make ~exec:(Time.of_ticks c_ticks) ~deadline:period ~period ~area ()))

let taskset_gen = QCheck2.Gen.(list_size (int_range 2 5) task_gen >|= Model.Taskset.of_list)

let run_traced ~policy t =
  let cfg = Engine.default_config ~fpga_area ~policy in
  let horizon =
    match Model.Taskset.hyperperiod t with
    | Model.Taskset.Finite h -> h
    | Model.Taskset.Exceeds_cap -> Time.of_units 60
  in
  Engine.run { cfg with Engine.horizon; record_trace = true } t

(* --- unit checks of the measures themselves --- *)

let measures_on_known_trace () =
  (* t1 = (C=2, T=4, A=6), t2 = (C=2, T=4, A=6): serialized on 10 columns;
     EDF runs t1 in [0,2), t2 in [2,4), repeating *)
  let t = ts [ ("t1", "2", "4", "4", 6); ("t2", "2", "4", "4", 6) ] in
  let r = run_traced ~policy:Sim.Policy.edf_fkf t in
  check_bool "schedulable" true (r.Engine.outcome = Engine.No_miss);
  let m = Measure.of_result r in
  let u = Time.of_units in
  Core_helpers.check_time "WT_1 over a period" (u 2) (Measure.time_work m ~task:0 ~lo:(u 0) ~hi:(u 4));
  Core_helpers.check_time "WT_2 over a period" (u 2) (Measure.time_work m ~task:1 ~lo:(u 0) ~hi:(u 4));
  Core_helpers.check_time "WT_1 clipped" (u 1) (Measure.time_work m ~task:0 ~lo:(u 1) ~hi:(u 4));
  (* system work over one period: 4 units * 6 columns *)
  Alcotest.(check int) "WS over a period" (4 * 1000 * 6) (Measure.system_work m ~lo:(u 0) ~hi:(u 4));
  (* t2 is preempted (waiting) during [0,2) *)
  Core_helpers.check_time "I_2" (u 2) (Measure.interference m ~task:1 ~lo:(u 0) ~hi:(u 4));
  Core_helpers.check_time "I_1" Time.zero (Measure.interference m ~task:0 ~lo:(u 0) ~hi:(u 2));
  (* with amax = 6, occupied 6 >= 10-6+1 = 5 always: all busy *)
  Core_helpers.check_time "B" (u 4)
    (Measure.block_busy_time m ~fpga_area ~amax:6 ~lo:(u 0) ~hi:(u 4));
  Core_helpers.check_time "B_1" (u 2)
    (Measure.task_block_busy m ~task:0 ~fpga_area ~amax:6 ~lo:(u 0) ~hi:(u 4));
  (* both tasks stay active throughout [0,4) from release to completion *)
  Core_helpers.check_time "busy interval of t2" (u 0)
    (Measure.busy_interval_start m ~task:1 ~ending_at:(u 4))

(* --- Lemma 8: (A(H)-Amax+1) B <= sum A_i B_i --- *)

let prop_lemma8 =
  Core_helpers.qtest ~count:200 "Lemma 8 on random traces" taskset_gen (fun t ->
      let r = run_traced ~policy:Sim.Policy.edf_fkf t in
      match r.Engine.segments with
      | [] -> true
      | _ ->
        let m = Measure.of_result r in
        let amax = Model.Taskset.amax t in
        let lo, hi = Measure.span m in
        let b = Time.ticks (Measure.block_busy_time m ~fpga_area ~amax ~lo ~hi) in
        let weighted =
          List.fold_left ( + ) 0
            (List.mapi
               (fun i (task : Model.Task.t) ->
                 task.area * Time.ticks (Measure.task_block_busy m ~task:i ~fpga_area ~amax ~lo ~hi))
               (Model.Taskset.to_list t))
        in
        (fpga_area - amax + 1) * b <= weighted)

(* --- Lemma 10 (non-strict reading): during a tau_k-busy interval,
   WS >= Abnd*B + Amin*(delta - B) --- *)

let prop_lemma10 =
  Core_helpers.qtest ~count:200 "Lemma 10 on tau_k-busy windows" taskset_gen (fun t ->
      let r = run_traced ~policy:Sim.Policy.edf_fkf t in
      match r.Engine.outcome with
      | Engine.No_miss -> true
      | Engine.Miss miss ->
        let m = Measure.of_result r in
        let k = miss.Engine.task_index in
        let hi = miss.Engine.at in
        let lo = Measure.busy_interval_start m ~task:k ~ending_at:hi in
        let delta = Time.ticks hi - Time.ticks lo in
        if delta <= 0 then true
        else begin
          let amax = Model.Taskset.amax t and amin = Model.Taskset.amin t in
          let abnd = fpga_area - amax + 1 in
          let b = Time.ticks (Measure.block_busy_time m ~fpga_area ~amax ~lo ~hi) in
          let ws = Measure.system_work m ~lo ~hi in
          ws >= (abnd * b) + (amin * (delta - b))
        end)

(* --- Lemma 5: at the first deadline miss of tau_k over the maximal
   tau_k-busy interval [t-delta, t):
     I_k(t-delta, t) > delta - (delta + T_k - D_k) * C_k / T_k --- *)

let prop_lemma5 =
  Core_helpers.qtest ~count:400 "Lemma 5 at first misses" taskset_gen (fun t ->
      let r = run_traced ~policy:Sim.Policy.edf_fkf t in
      match r.Engine.outcome with
      | Engine.No_miss -> true
      | Engine.Miss miss ->
        let m = Measure.of_result r in
        let k = miss.Engine.task_index in
        let task = Model.Taskset.nth t k in
        let hi = miss.Engine.at in
        let lo = Measure.busy_interval_start m ~task:k ~ending_at:hi in
        let delta_q = Rat.sub (Time.to_rat hi) (Time.to_rat lo) in
        if Rat.sign delta_q <= 0 then true
        else begin
          let ik = Time.to_rat (Measure.interference m ~task:k ~lo ~hi) in
          let tk = Time.to_rat task.Model.Task.period in
          let dk = Time.to_rat task.Model.Task.deadline in
          let ck = Time.to_rat task.Model.Task.exec in
          let bound =
            let open Rat.Infix in
            delta_q - ((delta_q + tk - dk) * ck / tk)
          in
          Rat.compare ik bound > 0
        end)

(* --- Lemma 2 as a measured statement: while a job of tau_k waits, the
   occupied area under EDF-NF is at least A(H) - (A_k - 1); here stated
   via interference vs system work: the per-segment engine flag already
   checks it, so this re-derives it from the trace alone --- *)

let prop_lemma2_from_trace =
  Core_helpers.qtest ~count:200 "Lemma 2 re-derived from traces" taskset_gen (fun t ->
      let r = run_traced ~policy:Sim.Policy.edf_nf t in
      match r.Engine.segments with
      | [] -> true
      | segs ->
        List.for_all
          (fun (seg : Engine.segment) ->
            let occupied =
              List.fold_left (fun acc p -> acc + Sim.Job.area p.Engine.job) 0 seg.Engine.running
            in
            List.for_all
              (fun j -> occupied >= fpga_area - (Sim.Job.area j - 1))
              seg.Engine.waiting)
          segs)

(* --- internal consistency of the measures --- *)

let prop_measure_consistency =
  Core_helpers.qtest ~count:200 "measure sanity on random traces" taskset_gen (fun t ->
      let r = run_traced ~policy:Sim.Policy.edf_nf t in
      match r.Engine.segments with
      | [] -> true
      | _ ->
        let m = Measure.of_result r in
        let lo, hi = Measure.span m in
        let len = Time.ticks hi - Time.ticks lo in
        let amax = Model.Taskset.amax t in
        let n = Model.Taskset.size t in
        List.for_all
          (fun task ->
            let wt = Time.ticks (Measure.time_work m ~task ~lo ~hi) in
            let ik = Time.ticks (Measure.interference m ~task ~lo ~hi) in
            let bi = Time.ticks (Measure.task_block_busy m ~task ~fpga_area ~amax ~lo ~hi) in
            (* work and interference are disjoint and within the window *)
            wt >= 0 && ik >= 0 && wt + ik <= len
            (* execution during block-busy time is part of all execution *)
            && bi <= wt)
          (List.init n Fun.id)
        (* system work equals the per-task area-weighted time work *)
        && Measure.system_work m ~lo ~hi
           = List.fold_left ( + ) 0
               (List.mapi
                  (fun i (task : Model.Task.t) ->
                    task.area * Time.ticks (Measure.time_work m ~task:i ~lo ~hi))
                  (Model.Taskset.to_list t))
        (* block-busy time is within the window *)
        && Time.ticks (Measure.block_busy_time m ~fpga_area ~amax ~lo ~hi) <= len)

let () =
  Alcotest.run "lemmas"
    [
      ( "measures",
        [ Alcotest.test_case "known trace" `Quick measures_on_known_trace ] );
      ( "audits",
        [ prop_lemma8; prop_lemma10; prop_lemma5; prop_lemma2_from_trace ] );
      ("consistency", [ prop_measure_consistency ]);
    ]
