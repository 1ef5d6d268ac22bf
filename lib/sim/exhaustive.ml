module Time = Model.Time

type outcome =
  | Schedulable_all_offsets of { combinations : int }
  | Miss_with_offsets of { offsets : Time.t list; miss : Engine.miss }
  | Too_many_combinations of { combinations : int }
  | Hyperperiod_too_large

let m_searches = Obs.Counter.make "sim.exhaustive.searches"
let m_combinations = Obs.Counter.make "sim.exhaustive.combinations"

(* with early exit, how many combinations were actually simulated
   depends on which worker finds the miss first *)
let m_simulated = Obs.Counter.make ~det:false "sim.exhaustive.simulated"

(* offsets per task: 0, grid, 2*grid, ... < T_i *)
let offset_choices grid (task : Model.Task.t) =
  let g = Time.ticks grid and p = Time.ticks task.period in
  let n = (p + g - 1) / g in
  List.init n (fun k -> Time.of_ticks (k * g))

let count_combinations choices =
  Array.fold_left
    (fun acc l ->
      let n = Array.length l in
      if acc > max_int / max 1 n then max_int else acc * n)
    1 choices

(* combination [idx] in lexicographic order, first task most
   significant: decode a mixed-radix number from the last task up *)
let offsets_of_index choices idx =
  let rec go i idx acc =
    if i < 0 then acc
    else
      let radix = Array.length choices.(i) in
      go (i - 1) (idx / radix) (choices.(i).(idx mod radix) :: acc)
  in
  go (Array.length choices - 1) idx []

let search_inner ?(grid = Time.of_units 1) ?(max_combinations = 20_000) ?(jobs = 1) ~fpga_area
    ~policy ts =
  Obs.Counter.incr m_searches;
  match Model.Taskset.hyperperiod ts with
  | Model.Taskset.Exceeds_cap -> Hyperperiod_too_large
  | Model.Taskset.Finite hyper ->
    let choices =
      Array.of_list
        (List.map (fun t -> Array.of_list (offset_choices grid t)) (Model.Taskset.to_list ts))
    in
    let combinations = count_combinations choices in
    if combinations > max_combinations then Too_many_combinations { combinations }
    else begin
      Obs.Counter.add m_combinations combinations;
      let try_offsets offsets =
        Obs.Counter.incr m_simulated;
        let max_offset = List.fold_left Time.max Time.zero offsets in
        (* asynchronous periodic schedules need the transient plus a full
           steady-state period: simulate max offset + 2 hyper-periods *)
        let cfg = Engine.default_config ~fpga_area ~policy in
        let cfg =
          {
            cfg with
            Engine.horizon = Time.add max_offset (Time.mul_int hyper 2);
            Engine.release = Engine.Offsets offsets;
          }
        in
        match (Engine.run cfg ts).Engine.outcome with
        | Engine.No_miss -> None
        | Engine.Miss miss -> Some (Miss_with_offsets { offsets; miss })
      in
      let jobs = Parallel.resolve_jobs jobs in
      if jobs <= 1 then begin
        (* serial: first miss in enumeration order *)
        let rec go i =
          if i >= combinations then Schedulable_all_offsets { combinations }
          else
            match try_offsets (offsets_of_index choices i) with
            | Some result -> result
            | None -> go (i + 1)
        in
        go 0
      end
      else begin
        (* parallel branch exploration over the combination indices,
           with a shared atomic best-so-far.  "Best" is the smallest
           combination index exhibiting a miss: workers skip branches
           above the current best, and every index below the final best
           is examined, so the reported miss is exactly the one the
           serial enumeration finds — for any worker count. *)
        let best = Atomic.make max_int in
        let result_mutex = Mutex.create () in
        let best_result = ref None in
        let cursor = Atomic.make 0 in
        let chunk = max 1 (combinations / (8 * jobs)) in
        let body () =
          let rec grab () =
            let start = Atomic.fetch_and_add cursor chunk in
            if start >= combinations then ()
            else begin
              let stop = min combinations (start + chunk) in
              for i = start to stop - 1 do
                if i < Atomic.get best then begin
                  match try_offsets (offsets_of_index choices i) with
                  | None -> ()
                  | Some r ->
                    Mutex.lock result_mutex;
                    (match !best_result with
                     | Some (j, _) when j < i -> ()
                     | Some _ | None -> best_result := Some (i, r));
                    Mutex.unlock result_mutex;
                    let rec relax () =
                      let cur = Atomic.get best in
                      if i < cur && not (Atomic.compare_and_set best cur i) then relax ()
                    in
                    relax ()
                end
              done;
              grab ()
            end
          in
          grab ()
        in
        Parallel.Pool.with_pool ~jobs (fun pool -> Parallel.Pool.run pool body);
        match !best_result with
        | Some (_, result) -> result
        | None -> Schedulable_all_offsets { combinations }
      end
    end

let search ?grid ?max_combinations ?jobs ~fpga_area ~policy ts =
  Obs.Span.with_ ~name:"sim.exhaustive.search" (fun () ->
      search_inner ?grid ?max_combinations ?jobs ~fpga_area ~policy ts)
