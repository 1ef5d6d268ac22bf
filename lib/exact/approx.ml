[@@@redf.det]
[@@@redf.exact]

module Time = Model.Time
module Taskset = Model.Taskset

let default_eps = Rat.of_ints 1 10
let m_analyses = Obs.Counter.make "exact.approx.analyses"
let m_points = Obs.Counter.make "exact.approx.points"

type outcome = Core.Dbf.result =
  | Accepted of { horizon : Time.t; points : int; partial : bool }
  | Refuted_at of { at : Time.t; demand : Bignum.t; supply : Bignum.t }
  | Refuted_overload of { us : Rat.t }

let analyze ?(eps = default_eps) ?horizon_cap ~fpga_area ts =
  if Rat.sign eps <= 0 then invalid_arg "Approx.analyze: eps must be positive";
  Obs.Counter.incr m_analyses;
  let outcome = Core.Dbf.test ?horizon_cap (Core.Dbf.Geometric eps) ~fpga_area ts in
  (match outcome with
   | Accepted { points; _ } -> Obs.Counter.add m_points points
   | Refuted_at _ | Refuted_overload _ -> ());
  outcome

let verdict ~eps ~name ~fpga_area ts =
  if not (Taskset.fits ts ~fpga_area) then
    Core.Verdict.reject_all ~test_name:name ~note:"a task is wider than the FPGA" ts
  else begin
    let rhs = Rat.of_int fpga_area in
    let satisfied, lhs, note =
      match analyze ~eps ~fpga_area ts with
      | Refuted_overload { us } ->
        ( false,
          us,
          Printf.sprintf
            "long-run overload: US = %s column-units/unit exceeds A(H) = %d (infeasible under \
             any scheduler)"
            (Rat.to_string us) fpga_area )
      | Refuted_at { at; demand; supply = _ } ->
        let h_over_t = Rat.make demand (Bignum.of_int (Time.ticks at)) in
        ( false,
          h_over_t,
          Printf.sprintf
            "area demand exceeds supply at t=%s: h(t)/t = %s columns > A(H) = %d; REJECT is \
             exact (necessary criterion violated, infeasible under any scheduler)"
            (Time.to_string at) (Rat.to_string h_over_t) fpga_area )
      | Accepted { horizon; points; partial } ->
        ( true,
          Core.Dbf.peak (Core.Dbf.Geometric eps) ~fpga_area ~horizon ts,
          if points = 0 && not partial then
            "US <= A(H) and the utilization-slack bound is zero: the necessary criterion holds \
             everywhere, no test points needed"
          else
            Printf.sprintf
              "no area-demand violation at %d test points up to t=%s; eps = %s certifies h(t) \
               <= (1+eps) A(H) t below the horizon%s"
              points (Time.to_string horizon) (Rat.to_string eps)
              (if partial then " (horizon capped: prefix certificate only)" else "") )
    in
    let checks =
      List.mapi
        (fun i _ -> { Core.Verdict.task_index = i; satisfied; lhs; rhs; note })
        (Taskset.to_list ts)
    in
    Core.Verdict.make ~test_name:name ~checks
  end
