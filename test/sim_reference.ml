(* The simulator as it was before the in-place rewrite of Sim.Engine:
   sort the active list every segment, build the running and waiting
   lists, filter on completion.  Kept as the differential reference the
   rewrite is checked against (test_sim.ml): outcome, stats and every
   segment must be identical.  Its result types are Sim.Engine's; the
   queue order it re-sorts by lives here too, and it updates no
   metrics. *)

module Time = Model.Time
module Task = Model.Task
module Taskset = Model.Taskset
module Device = Fpga.Device
module Job = Sim.Job
module Policy = Sim.Policy

type placement_mode = Sim.Engine.placement_mode = Migrating | Contiguous of Device.strategy
type release_pattern = Sim.Engine.release_pattern =
  | Synchronous
  | Offsets of Time.t list
  | Sporadic of { seed : int; max_delay : Time.t }

type config = Sim.Engine.config = {
  fpga_area : int;
  policy : Policy.t;
  horizon : Time.t;
  release : release_pattern;
  placement : placement_mode;
  record_trace : bool;
}

type placed = Sim.Engine.placed = { job : Job.t; region : Device.region option }

type segment = Sim.Engine.segment = {
  t0 : Time.t;
  t1 : Time.t;
  running : placed list;
  waiting : Job.t list;
}

type miss = Sim.Engine.miss = { job_id : int; task_index : int; at : Time.t }
type outcome = Sim.Engine.outcome = No_miss | Miss of miss

type stats = Sim.Engine.stats = {
  iterations : int;
  events_popped : int;
  jobs_released : int;
  jobs_completed : int;
  elapsed_ticks : int;
  busy_column_ticks : int;
  contended_ticks : int;
  min_busy_when_contended : int option;
  nf_alpha_respected : bool;
  fkf_alpha_respected : bool;
  preemptions : int;
  placements_made : int;
}

type result = Sim.Engine.result = { outcome : outcome; stats : stats; segments : segment list }

(* simulation events; completions are recomputed, not queued.  [seq]
   makes simultaneous events pop in push order, so jobs released at the
   same instant enter the queue in task order — Definition 1/2 tie-break
   determinism depends on it. *)
type event_kind = Release of int (* task index *) | Deadline_check of Job.t

type event = { at : Time.t; seq : int; kind : event_kind }

let event_cmp a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

(* --- queue order --- *)

let is_heavy ~threshold ~measure ~fpga_area (task : Model.Task.t) =
  let u =
    match measure with
    | `Time -> Model.Task.time_utilization task
    | `System -> Rat.div (Model.Task.system_utilization task) (Rat.of_int fpga_area)
  in
  Rat.compare u threshold > 0

let order_queue t ~fpga_area jobs =
  match t.Policy.order with
  | Policy.Edf -> List.sort Job.compare_edf jobs
  | Policy.Us_first { threshold; measure } ->
    let heavy j = is_heavy ~threshold ~measure ~fpga_area j.Job.task in
    let cmp a b =
      match (heavy a, heavy b) with
      | true, false -> -1
      | false, true -> 1
      | true, true ->
        let c = Int.compare a.Job.task_index b.Job.task_index in
        if c <> 0 then c else Int.compare a.Job.id b.Job.id
      | false, false -> Job.compare_edf a b
    in
    List.sort cmp jobs

(* --- running-set selection --- *)

(* Migrating mode: a job fits iff total free area suffices (the paper's
   fit criterion under unrestricted migration + defragmentation). *)
let select_migrating (rule : Policy.fit_rule) fpga_area ordered =
  let rec fkf used = function
    | [] -> []
    | j :: rest ->
      let a = Job.area j in
      if used + a <= fpga_area then { job = j; region = None } :: fkf (used + a) rest else []
  in
  let rec nf used = function
    | [] -> []
    | j :: rest ->
      let a = Job.area j in
      if used + a <= fpga_area then { job = j; region = None } :: nf (used + a) rest
      else nf used rest
  in
  match rule with Policy.Fkf -> fkf 0 ordered | Policy.Nf -> nf 0 ordered

(* Contiguous mode: a running job keeps its region; a job whose region was
   claimed by a higher-priority job cannot run this interval (migration of
   a placed job is not allowed); a newly running job needs a contiguous
   free block under the configured strategy. *)
let select_contiguous (rule : Policy.fit_rule) strategy fpga_area placements ordered =
  let dev : int Device.t = Device.create ~area:fpga_area in
  let try_place j =
    match Hashtbl.find_opt placements j.Job.id with
    | Some (r : Device.region) ->
      (* reuse the previous region if still free *)
      (try
         Device.place_at dev ~tag:j.Job.id r;
         Some r
       with Invalid_argument _ -> None)
    | None -> Device.place ~strategy dev ~tag:j.Job.id ~width:(Job.area j)
  in
  let rec fkf = function
    | [] -> []
    | j :: rest -> (
      match try_place j with Some r -> { job = j; region = Some r } :: fkf rest | None -> [])
  in
  let rec nf = function
    | [] -> []
    | j :: rest -> (
      match try_place j with
      | Some r -> { job = j; region = Some r } :: nf rest
      | None -> nf rest)
  in
  match rule with Policy.Fkf -> fkf ordered | Policy.Nf -> nf ordered

(* --- engine --- *)

module Iset = Set.Make (Int)

type state = {
  cfg : config;
  taskset : Task.t array;
  amax : int; (* widest task, fixed for the run (Lemma 1 bound) *)
  events : event Pqueue.t;
  sporadic : Rng.t option; (* delay source for sporadic arrivals *)
  mutable event_seq : int;
  mutable active : Job.t list; (* unfinished released jobs *)
  mutable next_id : int;
  placements : (int, Device.region) Hashtbl.t; (* contiguous mode only *)
  mutable prev_running : Iset.t;
  (* accumulating stats *)
  mutable iterations : int;
  mutable events_popped : int;
  mutable jobs_released : int;
  mutable jobs_completed : int;
  mutable busy_column_ticks : int;
  mutable contended_ticks : int;
  mutable min_busy_when_contended : int option;
  mutable nf_alpha_respected : bool;
  mutable fkf_alpha_respected : bool;
  mutable preemptions : int;
  mutable placements_made : int;
  mutable segments_recorded : int;
  mutable segments : segment list;
}

let push_event st ~at kind =
  st.event_seq <- st.event_seq + 1;
  Pqueue.push st.events { at; seq = st.event_seq; kind }

let release_job st ~task_index ~at =
  let task = st.taskset.(task_index) in
  let job = Job.make ~id:st.next_id ~task_index ~task ~release:at in
  st.next_id <- st.next_id + 1;
  st.jobs_released <- st.jobs_released + 1;
  st.active <- job :: st.active;
  push_event st ~at:job.Job.abs_deadline (Deadline_check job);
  let delay =
    match (st.sporadic, st.cfg.release) with
    | Some rng, Sporadic { max_delay; _ } when Time.is_positive max_delay ->
      Time.of_ticks (Rng.int_incl rng 0 (Time.ticks max_delay))
    | _ -> Time.zero
  in
  let next = Time.add (Time.add at task.Task.period) delay in
  (* releases happen strictly inside [0, horizon) *)
  if Time.(next < st.cfg.horizon) then push_event st ~at:next (Release task_index)

(* process every event scheduled at [now]; returns a miss if one fired *)
let process_events st ~now =
  let miss = ref None in
  let continue = ref true in
  while !continue do
    match Pqueue.peek st.events with
    | Some ev when Time.(ev.at <= now) ->
      ignore (Pqueue.pop_exn st.events);
      st.events_popped <- st.events_popped + 1;
      (match ev.kind with
       | Release task_index -> release_job st ~task_index ~at:ev.at
       | Deadline_check job ->
         if (not (Job.is_finished job)) && Option.is_none !miss then
           miss := Some { job_id = job.Job.id; task_index = job.Job.task_index; at = ev.at })
    | _ -> continue := false
  done;
  !miss

let record_segment st ~now ~next ~running ~waiting =
  let dt = Time.ticks (Time.sub next now) in
  let occupied = List.fold_left (fun acc p -> acc + Job.area p.job) 0 running in
  st.busy_column_ticks <- st.busy_column_ticks + (occupied * dt);
  st.segments_recorded <- st.segments_recorded + 1;
  if waiting <> [] then begin
    st.contended_ticks <- st.contended_ticks + dt;
    (match st.min_busy_when_contended with
     | Some m when m <= occupied -> ()
     | Some _ | None -> st.min_busy_when_contended <- Some occupied);
    if occupied < st.cfg.fpga_area - (st.amax - 1) then st.fkf_alpha_respected <- false;
    List.iter
      (fun j ->
        if occupied < st.cfg.fpga_area - (Job.area j - 1) then st.nf_alpha_respected <- false)
      waiting
  end;
  if st.cfg.record_trace then st.segments <- { t0 = now; t1 = next; running; waiting } :: st.segments

let update_placements st running =
  match st.cfg.placement with
  | Migrating -> ()
  | Contiguous _ ->
    let selected = Hashtbl.create 16 in
    List.iter
      (fun p ->
        match p.region with
        | Some r ->
          if not (Hashtbl.mem st.placements p.job.Job.id) then
            st.placements_made <- st.placements_made + 1;
          Hashtbl.replace selected p.job.Job.id r
        | None -> ())
      running;
    (* jobs that lost their spot are off the fabric *)
    Hashtbl.reset st.placements;
    (Hashtbl.iter (fun id r -> Hashtbl.replace st.placements id r) selected
    [@redf.allow "det-purity"
                   "replacing distinct keys into a freshly-reset table commutes, so the \
                    iteration order cannot affect the resulting placements"])

let count_preemptions st ~running_set =
  let active_set =
    List.fold_left (fun acc (j : Job.t) -> Iset.add j.Job.id acc) Iset.empty st.active
  in
  Iset.iter
    (fun id ->
      (* previously running, still active (unfinished), no longer running *)
      if Iset.mem id active_set && not (Iset.mem id running_set) then
        st.preemptions <- st.preemptions + 1)
    st.prev_running;
  st.prev_running <- running_set

let run cfg taskset =
  let tasks = Taskset.to_array taskset in
  let n = Array.length tasks in
  Array.iter
    (fun (t : Task.t) ->
      if t.area > cfg.fpga_area then
        invalid_arg "Engine.run: task wider than the FPGA")
    tasks;
  let offsets =
    match cfg.release with
    | Synchronous | Sporadic _ -> Array.make n Time.zero
    | Offsets l ->
      if List.length l <> n then invalid_arg "Engine.run: one offset per task required";
      Array.of_list l
  in
  let st =
    {
      cfg;
      taskset = tasks;
      amax = Array.fold_left (fun acc (t : Task.t) -> max acc t.area) 0 tasks;
      events = Pqueue.create ~cmp:event_cmp;
      sporadic = (match cfg.release with Sporadic { seed; _ } -> Some (Rng.create ~seed) | _ -> None);
      event_seq = 0;
      active = [];
      next_id = 0;
      placements = Hashtbl.create 64;
      prev_running = Iset.empty;
      iterations = 0;
      events_popped = 0;
      jobs_released = 0;
      jobs_completed = 0;
      busy_column_ticks = 0;
      contended_ticks = 0;
      min_busy_when_contended = None;
      nf_alpha_respected = true;
      fkf_alpha_respected = true;
      preemptions = 0;
      placements_made = 0;
      segments_recorded = 0;
      segments = [];
    }
  in
  Array.iteri
    (fun i off -> if Time.(off < cfg.horizon) then push_event st ~at:off (Release i))
    offsets;
  let outcome = ref No_miss in
  let now = ref Time.zero in
  let stop = ref false in
  while not !stop do
    st.iterations <- st.iterations + 1;
    (match process_events st ~now:!now with
     | Some m ->
       outcome := Miss m;
       stop := true
     | None -> ());
    if (not !stop) && Time.(!now >= cfg.horizon) then stop := true;
    if not !stop then begin
      let ordered = order_queue cfg.policy ~fpga_area:cfg.fpga_area st.active in
      let running =
        match cfg.placement with
        | Migrating -> select_migrating cfg.policy.Policy.rule cfg.fpga_area ordered
        | Contiguous strategy ->
          select_contiguous cfg.policy.Policy.rule strategy cfg.fpga_area st.placements ordered
      in
      update_placements st running;
      let running_set =
        List.fold_left (fun acc p -> Iset.add p.job.Job.id acc) Iset.empty running
      in
      count_preemptions st ~running_set;
      let waiting = List.filter (fun j -> not (Iset.mem j.Job.id running_set)) ordered in
      (* next decision instant: next event, or earliest completion *)
      let next_event = match Pqueue.peek st.events with Some e -> e.at | None -> cfg.horizon in
      let next =
        List.fold_left
          (fun acc p -> Time.min acc (Time.add !now p.job.Job.remaining))
          (Time.min next_event cfg.horizon) running
      in
      assert (Time.(next > !now));
      record_segment st ~now:!now ~next ~running ~waiting;
      (* advance running jobs *)
      let dt = Time.sub next !now in
      List.iter
        (fun p ->
          let j = p.job in
          j.Job.remaining <- Time.sub j.Job.remaining dt;
          if Job.is_finished j then begin
            st.jobs_completed <- st.jobs_completed + 1;
            st.active <- List.filter (fun a -> a.Job.id <> j.Job.id) st.active;
            Hashtbl.remove st.placements j.Job.id;
            st.prev_running <- Iset.remove j.Job.id st.prev_running
          end)
        running;
      now := next
    end
  done;
  let stats =
    {
      iterations = st.iterations;
      events_popped = st.events_popped;
      jobs_released = st.jobs_released;
      jobs_completed = st.jobs_completed;
      (* time actually simulated: the horizon, or the instant the run
         stopped on a deadline miss — the denominator for any per-time
         average over this result *)
      elapsed_ticks = Time.ticks !now;
      busy_column_ticks = st.busy_column_ticks;
      contended_ticks = st.contended_ticks;
      min_busy_when_contended = st.min_busy_when_contended;
      nf_alpha_respected = st.nf_alpha_respected;
      fkf_alpha_respected = st.fkf_alpha_respected;
      preemptions = st.preemptions;
      placements_made = st.placements_made;
    }
  in
  { outcome = !outcome; stats; segments = List.rev st.segments }

