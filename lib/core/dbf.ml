module Time = Model.Time
module Taskset = Model.Taskset
module Columns = Taskset.Columns

type points = Every_deadline | Geometric of Rat.t

type result =
  | Accepted of { horizon : Time.t; points : int; partial : bool }
  | Refuted_at of { at : Time.t; demand : Bignum.t; supply : Bignum.t }
  | Refuted_overload of { us : Rat.t }

let default_cap = Time.of_units 10_000

let demand_native (c : Columns.t) ~at_ticks:t =
  let acc = ref 0 in
  for i = 0 to c.n - 1 do
    let d = c.deadline.(i) in
    if t >= d then acc := !acc + ((((t - d) / c.period.(i)) + 1) * c.exec.(i) * c.area.(i))
  done;
  !acc

let demand (c : Columns.t) ~at_ticks:t =
  let acc = ref Bignum.zero in
  for i = 0 to c.n - 1 do
    let d = c.deadline.(i) in
    if t >= d then
      acc :=
        Bignum.add !acc
          (Bignum.mul
             (Bignum.of_int (((t - d) / c.period.(i)) + 1))
             (Bignum.mul (Bignum.of_int c.exec.(i)) (Bignum.of_int c.area.(i))))
  done;
  !acc

(* whether [demand_native] and A(H) t are exact at every t up to the
   horizon: each of their products and partial sums is non-decreasing
   in t, so evaluating them once at the horizon in checked ints covers
   every point below it *)
let native_below (c : Columns.t) ~fpga_area horizon =
  let open Ticks.Checked in
  match
    ignore (mul fpga_area horizon);
    let acc = ref 0 in
    for i = 0 to c.n - 1 do
      let d = c.deadline.(i) in
      if horizon >= d then
        acc := add !acc (mul (mul (((horizon - d) / c.period.(i)) + 1) c.exec.(i)) c.area.(i))
    done
  with
  | () -> true
  | exception Ticks.Overflow -> false

(* the least of two horizons, in ticks, past which no violation of
   h(t) <= A(H) t can first appear, and whether the cap replaced both:
   - H + D_max, since h(t + H) <= h(t) + US H <= h(t) + A(H) H;
   - S / (A(H) - US) with S = sum_i A_i C_i max(0, T_i - D_i) / T_i,
     since dbf_i(t) <= C_i (t + max(0, T_i - D_i)) / T_i for every t,
     so h(t) <= US t + S and every violation lies below it.
   Each counts only where it is at most the cap, compared before it is
   turned into an int *)
let horizon ~cap ~fpga_area ~us ts (c : Columns.t) =
  let hyper =
    match Taskset.hyperperiod ~cap:(Time.of_ticks cap) ts with
    | Taskset.Finite h ->
      let h = Time.ticks h and dmax = Array.fold_left max 0 c.deadline in
      (* H <= cap, so the remainder cannot wrap where H + D_max could *)
      if dmax <= cap - h then Some (h + dmax) else None
    | Taskset.Exceeds_cap -> None
  in
  let slack =
    let a = Rat.of_int fpga_area in
    if Rat.compare us a >= 0 then None
    else
      let s =
        Rat.sum
          (List.init c.n (fun i ->
               let p = c.period.(i) in
               Rat.mul
                 (Rat.mul (Rat.of_int c.area.(i)) (Rat.of_int c.exec.(i)))
                 (Rat.of_ints (max 0 (p - c.deadline.(i))) p)))
      in
      let bound = Rat.div s (Rat.sub a us) in
      if Rat.compare bound (Rat.of_int cap) <= 0 then Some (Rat.floor_int bound) else None
  in
  match (hyper, slack) with
  | None, None -> (cap, true)
  | Some b, None | None, Some b -> (b, false)
  | Some b1, Some b2 -> (min b1 b2, false)

(* the test points up to the horizon, ascending.  [Every_deadline] is
   exact: h only steps at absolute deadlines.  [Geometric eps] takes
   every task's first deadline, then a tail whose consecutive points
   are at most a factor 1 + eps or one tick apart, so a scan that
   passes them certifies h(t) <= (1 + eps) A(H) t below the horizon *)
let check_points points (c : Columns.t) ~horizon =
  match points with
  | Every_deadline ->
    let acc = ref [] in
    for i = 0 to c.n - 1 do
      let d = c.deadline.(i) and p = c.period.(i) in
      if d <= horizon then
        for k = 0 to (horizon - d) / p do
          acc := (d + (k * p)) :: !acc
        done
    done;
    List.sort_uniq Int.compare !acc
  | Geometric eps -> (
    match List.filter (fun d -> d <= horizon) (Array.to_list c.deadline) with
    | [] -> []
    | d :: ds as firsts ->
      let ratio = Rat.add Rat.one eps in
      (* floor(p (1 + eps)) is compared with the horizon before it is
         used as an int, which it may not fit *)
      let rec tail p acc =
        if p >= horizon then acc
        else
          let next =
            match Bignum.to_int_opt (Rat.floor (Rat.mul (Rat.of_int p) ratio)) with
            | Some q when q < horizon -> max (p + 1) q
            | Some _ | None -> horizon
          in
          tail next (next :: acc)
      in
      let dmin = List.fold_left min d ds in
      List.sort_uniq Int.compare (firsts @ tail dmin [ dmin ]))

let test ?(horizon_cap = default_cap) points ~fpga_area ts =
  let us = Taskset.system_utilization ts in
  if Rat.compare us (Rat.of_int fpga_area) > 0 then Refuted_overload { us }
  else begin
    let c = Columns.of_taskset ts in
    let horizon, partial = horizon ~cap:(Time.ticks horizon_cap) ~fpga_area ~us ts c in
    let ps = check_points points c ~horizon in
    (* Some (h(t), A(H) t) where the demand exceeds the supply at t *)
    let violation =
      if native_below c ~fpga_area horizon then fun t ->
        let demand = demand_native c ~at_ticks:t and supply = fpga_area * t in
        if demand > supply then Some (Bignum.of_int demand, Bignum.of_int supply) else None
      else fun t ->
        let demand = demand c ~at_ticks:t and supply = Bignum.mul (Bignum.of_int fpga_area) (Bignum.of_int t) in
        if Bignum.compare demand supply > 0 then Some (demand, supply) else None
    in
    let rec scan = function
      | [] -> Accepted { horizon = Time.of_ticks horizon; points = List.length ps; partial }
      | t :: rest -> (
        match violation t with
        | Some (demand, supply) -> Refuted_at { at = Time.of_ticks t; demand; supply }
        | None -> scan rest)
    in
    scan ps
  end

let peak points ~fpga_area ~horizon ts =
  let c = Columns.of_taskset ts and horizon = Time.ticks horizon in
  let ratio =
    if native_below c ~fpga_area horizon then fun t -> Rat.of_ints (demand_native c ~at_ticks:t) t
    else fun t -> Rat.make (demand c ~at_ticks:t) (Bignum.of_int t)
  in
  List.fold_left (fun acc t -> Rat.max acc (ratio t)) Rat.zero (check_points points c ~horizon)

let schedulable ts =
  let one_column =
    Taskset.of_list (List.map (fun (task : Model.Task.t) -> { task with area = 1 }) (Taskset.to_list ts))
  in
  match test Every_deadline ~fpga_area:1 one_column with
  | Accepted { partial; _ } -> not partial
  | Refuted_at _ | Refuted_overload _ -> false
