module Time = Model.Time
module Task = Model.Task
module Taskset = Model.Taskset
module Device = Fpga.Device

type placement_mode = Migrating | Contiguous of Device.strategy
type release_pattern =
  | Synchronous
  | Offsets of Time.t list
  | Sporadic of { seed : int; max_delay : Time.t }

type config = {
  fpga_area : int;
  policy : Policy.t;
  horizon : Time.t;
  release : release_pattern;
  placement : placement_mode;
  record_trace : bool;
}

let default_config ~fpga_area ~policy =
  {
    fpga_area;
    policy;
    horizon = Time.of_units 2000;
    release = Synchronous;
    placement = Migrating;
    record_trace = false;
  }

type placed = { job : Job.t; region : Device.region option }

type segment = { t0 : Time.t; t1 : Time.t; running : placed list; waiting : Job.t list }
type miss = { job_id : int; task_index : int; at : Time.t }
type outcome = No_miss | Miss of miss

type stats = {
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

type result = { outcome : outcome; stats : stats; segments : segment list }

(* process-wide run counters, accumulated once per [run] from the local
   mutable stats so the simulation loop itself carries no atomics *)
let m_runs = Obs.Counter.make "sim.engine.runs"
let m_iterations = Obs.Counter.make "sim.engine.iterations"
let m_events = Obs.Counter.make "sim.engine.events_popped"
let m_segments = Obs.Counter.make "sim.engine.segments"
let m_released = Obs.Counter.make "sim.engine.jobs_released"
let m_completed = Obs.Counter.make "sim.engine.jobs_completed"
let m_preemptions = Obs.Counter.make "sim.engine.preemptions"
let m_placements = Obs.Counter.make "sim.engine.placements_made"
let m_misses = Obs.Counter.make "sim.engine.deadline_misses"

(* simulation events; completions are recomputed, not queued.  [seq]
   makes simultaneous events pop in push order, so jobs released at the
   same instant enter the queue in task order — Definition 1/2 tie-break
   determinism depends on it.  A release pushes its job's deadline check
   and then the task's next release; when both fall on one instant (as
   when D = T without a sporadic delay) nothing can pop between them, so
   a single entry carries the pair and counts as two events. *)
type event_kind =
  | Release of int (* task index *)
  | Deadline_check of Job.t
  | Deadline_then_release of Job.t

type event = { at : Time.t; seq : int; kind : event_kind }

let event_cmp a b =
  let c = Time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

(* --- engine --- *)

(* The active queue is [queue.(0 .. len - 1)], kept in the policy's
   priority order.  A job's place in that order is fixed for its
   lifetime (EDF keys and EDF-US heaviness never change), so a released
   job is inserted once and the queue is never re-sorted.  The per-slot
   flags and regions are parallel arrays, reused across segments, and
   each segment is a pass over them; only a recorded trace builds
   lists. *)
type state = {
  cfg : config;
  taskset : Task.t array;
  amax : int; (* widest task, fixed for the run (Lemma 1 bound) *)
  priority : Job.t -> Job.t -> int;
  fkf : bool; (* a job that does not fit blocks everything behind it *)
  contiguous : (Device.strategy * int Device.t) option;
      (* contiguous mode: the allocation strategy and a device refilled
         each segment *)
  events : event Pqueue.t;
  sporadic : Rng.t option; (* delay source for sporadic arrivals *)
  mutable event_seq : int;
  mutable next_id : int;
  mutable queue : Job.t array; (* unfinished released jobs *)
  mutable running : bool array; (* selected for the current segment *)
  mutable was_running : bool array; (* selected for the previous segment *)
  mutable regions : Device.region array;
      (* contiguous mode: where a slot's job ran, valid while [was_running] *)
  mutable len : int;
  (* accumulating stats *)
  mutable iterations : int;
  mutable events_popped : int;
  mutable jobs_released : int;
  mutable jobs_completed : int;
  mutable busy_column_ticks : int;
  mutable contended_ticks : int;
  mutable min_busy_when_contended : int; (* max_int until contended *)
  mutable nf_alpha_respected : bool;
  mutable fkf_alpha_respected : bool;
  mutable preemptions : int;
  mutable placements_made : int;
  mutable segments_recorded : int;
  mutable segments : segment list;
}

let no_region = { Device.start = 0; width = 0 }

let push_event st ~at kind =
  st.event_seq <- st.event_seq + 1;
  Pqueue.push st.events { at; seq = st.event_seq; kind }

let grow st job =
  let cap = Array.length st.queue in
  if st.len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 st.len;
      b
    in
    st.queue <- extend st.queue job;
    st.running <- extend st.running false;
    st.was_running <- extend st.was_running false;
    st.regions <- extend st.regions no_region
  end

(* insertion step: shift every slot that [job] precedes one place back;
   a new job has the latest release, so under EDF it usually stops near
   the back *)
let enqueue st job =
  grow st job;
  let i = ref st.len in
  while !i > 0 && st.priority st.queue.(!i - 1) job > 0 do
    let k = !i in
    st.queue.(k) <- st.queue.(k - 1);
    st.was_running.(k) <- st.was_running.(k - 1);
    st.regions.(k) <- st.regions.(k - 1);
    decr i
  done;
  st.queue.(!i) <- job;
  st.was_running.(!i) <- false;
  st.len <- st.len + 1

let release_job st ~task_index ~at =
  let task = st.taskset.(task_index) in
  let job = Job.make ~id:st.next_id ~task_index ~task ~release:at in
  st.next_id <- st.next_id + 1;
  st.jobs_released <- st.jobs_released + 1;
  enqueue st job;
  let delay =
    match (st.sporadic, st.cfg.release) with
    | Some rng, Sporadic { max_delay; _ } when Time.is_positive max_delay ->
      Time.of_ticks (Rng.int_incl rng 0 (Time.ticks max_delay))
    | _ -> Time.zero
  in
  let next = Time.add (Time.add at task.Task.period) delay in
  (* releases happen strictly inside [0, horizon) *)
  let release_next = Time.(next < st.cfg.horizon) in
  if release_next && Time.equal next job.Job.abs_deadline then
    push_event st ~at:next (Deadline_then_release job)
  else begin
    push_event st ~at:job.Job.abs_deadline (Deadline_check job);
    if release_next then push_event st ~at:next (Release task_index)
  end

(* the first unfinished job whose deadline check pops is the miss *)
let check_deadline miss job ~at =
  if (not (Job.is_finished job)) && Option.is_none !miss then
    miss := Some { job_id = job.Job.id; task_index = job.Job.task_index; at }

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
       | Deadline_check job -> check_deadline miss job ~at:ev.at
       | Deadline_then_release job ->
         check_deadline miss job ~at:ev.at;
         st.events_popped <- st.events_popped + 1;
         release_job st ~task_index:job.Job.task_index ~at:ev.at)
    | _ -> continue := false
  done;
  !miss

(* Contiguous mode: a running job keeps its region; a job whose region
   was claimed by a higher-priority job cannot run this interval
   (migration of a placed job is not allowed); a newly running job needs
   a contiguous free block under the configured strategy. *)
let place st (strategy, dev) i =
  let j = st.queue.(i) in
  if st.was_running.(i) then (
    try
      Device.place_at dev ~tag:j.Job.id st.regions.(i);
      true
    with Invalid_argument _ -> false)
  else begin
    match Device.place ~strategy dev ~tag:j.Job.id ~width:(Job.area j) with
    | Some r ->
      st.regions.(i) <- r;
      st.placements_made <- st.placements_made + 1;
      true
    | None -> false
  end

let record_segment st ~now ~next =
  let running = ref [] and waiting = ref [] in
  for i = st.len - 1 downto 0 do
    let job = st.queue.(i) in
    if st.running.(i) then begin
      let region = match st.contiguous with Some _ -> Some st.regions.(i) | None -> None in
      running := { job; region } :: !running
    end
    else waiting := job :: !waiting
  done;
  st.segments <- { t0 = now; t1 = next; running = !running; waiting = !waiting } :: st.segments

(* one segment from [now]: select the running set in priority order,
   account for it, and run it to the next decision instant, which is
   returned *)
let step st ~now =
  (match st.contiguous with Some (_, dev) -> Device.clear dev | None -> ());
  (* selection, preemptions and the next instant: next event, or
     earliest completion *)
  let next_event = match Pqueue.peek st.events with Some e -> e.at | None -> st.cfg.horizon in
  let next = ref (Time.min next_event st.cfg.horizon) in
  let used = ref 0 and waiting = ref 0 and min_waiting_area = ref max_int in
  let blocked = ref false in
  for i = 0 to st.len - 1 do
    let j = st.queue.(i) in
    let run =
      (not !blocked)
      &&
      match st.contiguous with
      | None ->
        (* migrating mode: the total free area suffices (the paper's fit
           criterion under unrestricted migration + defragmentation) *)
        !used + Job.area j <= st.cfg.fpga_area
      | Some placer -> place st placer i
    in
    st.running.(i) <- run;
    if run then begin
      used := !used + Job.area j;
      next := Time.min !next (Time.add now j.Job.remaining)
    end
    else begin
      if st.fkf then blocked := true;
      incr waiting;
      min_waiting_area := Int.min !min_waiting_area (Job.area j);
      if st.was_running.(i) then st.preemptions <- st.preemptions + 1
    end
  done;
  let next = !next and occupied = !used in
  assert (Time.(next > now));
  (* the segment's statistics *)
  let dt = Time.ticks (Time.sub next now) in
  st.busy_column_ticks <- st.busy_column_ticks + (occupied * dt);
  st.segments_recorded <- st.segments_recorded + 1;
  if !waiting > 0 then begin
    st.contended_ticks <- st.contended_ticks + dt;
    st.min_busy_when_contended <- Int.min st.min_busy_when_contended occupied;
    let area = st.cfg.fpga_area in
    if occupied < area - (st.amax - 1) then st.fkf_alpha_respected <- false;
    (* Lemma 2 for every waiting job: the narrowest one is the binding one *)
    if occupied < area - (!min_waiting_area - 1) then st.nf_alpha_respected <- false
  end;
  if st.cfg.record_trace then record_segment st ~now ~next;
  (* advance the running jobs and drop the finished ones *)
  let dt = Time.of_ticks dt in
  let kept = ref 0 in
  for i = 0 to st.len - 1 do
    let j = st.queue.(i) and run = st.running.(i) in
    if run then j.Job.remaining <- Time.sub j.Job.remaining dt;
    if run && Job.is_finished j then st.jobs_completed <- st.jobs_completed + 1
    else begin
      let k = !kept in
      if k < i then begin
        st.queue.(k) <- j;
        st.regions.(k) <- st.regions.(i)
      end;
      st.was_running.(k) <- run;
      kept := k + 1
    end
  done;
  st.len <- !kept;
  next

let run_inner cfg taskset =
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
      priority = Policy.priority cfg.policy ~fpga_area:cfg.fpga_area tasks;
      fkf = (match cfg.policy.Policy.rule with Policy.Fkf -> true | Policy.Nf -> false);
      contiguous =
        (match cfg.placement with
         | Migrating -> None
         | Contiguous strategy -> Some (strategy, Device.create ~area:cfg.fpga_area));
      events = Pqueue.create ~cmp:event_cmp;
      sporadic = (match cfg.release with Sporadic { seed; _ } -> Some (Rng.create ~seed) | _ -> None);
      event_seq = 0;
      next_id = 0;
      queue = [||];
      running = [||];
      was_running = [||];
      regions = [||];
      len = 0;
      iterations = 0;
      events_popped = 0;
      jobs_released = 0;
      jobs_completed = 0;
      busy_column_ticks = 0;
      contended_ticks = 0;
      min_busy_when_contended = max_int;
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
    if not !stop then now := step st ~now:!now
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
      min_busy_when_contended =
        (if st.min_busy_when_contended = max_int then None else Some st.min_busy_when_contended);
      nf_alpha_respected = st.nf_alpha_respected;
      fkf_alpha_respected = st.fkf_alpha_respected;
      preemptions = st.preemptions;
      placements_made = st.placements_made;
    }
  in
  if Obs.enabled () then begin
    Obs.Counter.incr m_runs;
    Obs.Counter.add m_iterations st.iterations;
    Obs.Counter.add m_events st.events_popped;
    Obs.Counter.add m_segments st.segments_recorded;
    Obs.Counter.add m_released st.jobs_released;
    Obs.Counter.add m_completed st.jobs_completed;
    Obs.Counter.add m_preemptions st.preemptions;
    Obs.Counter.add m_placements st.placements_made;
    (match !outcome with Miss _ -> Obs.Counter.incr m_misses | No_miss -> ())
  end;
  { outcome = !outcome; stats; segments = List.rev st.segments }

let run cfg taskset = Obs.Span.with_ ~name:"sim.engine.run" (fun () -> run_inner cfg taskset)

let schedulable cfg taskset =
  match (run cfg taskset).outcome with No_miss -> true | Miss _ -> false

let average_busy_area result =
  let ticks = result.stats.elapsed_ticks in
  if ticks = 0 then 0.0 else float_of_int result.stats.busy_column_ticks /. float_of_int ticks
