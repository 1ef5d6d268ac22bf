(* Environment knobs for the benchmark harness.

   The paper averages >= 10000 tasksets per utilization point; that takes
   hours with five methods per point, so the default here is a faithful
   but smaller run: 500, the setting the committed results/fig*.csv were
   made with, so a default run rewrites them byte for byte.  Set
   REDF_SAMPLES=10000 to reproduce at paper scale. *)

let int_env name default =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let samples = int_env "REDF_SAMPLES" 500

(* worker domains for the parallelised passes; 0 means one per core.
   A malformed value stops the harness the way it stops the CLI. *)
let jobs =
  match Parallel.jobs_of_env () with
  | Ok n -> Parallel.resolve_jobs n
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
(* simulation horizon in time units; the paper simulates "to the
   hyper-period", which is astronomically large for random periods, so
   any practical run truncates (see EXPERIMENTS.md) *)
let horizon_units = int_env "REDF_HORIZON" 500
let seed = int_env "REDF_SEED" 42
let skip_micro = Sys.getenv_opt "REDF_SKIP_MICRO" <> None

let horizon = Model.Time.of_units horizon_units

(* results-file plumbing lives in Bench.Env (shared with redf
   bench-core); re-exported here under the harness's names *)
let results_dir = Bench.Env.results_dir
let write_file = Bench.Env.write_file

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Progress on stderr, throttled to whole-percent steps and emitted as a
   single [output_string] + flush so concurrent completions from worker
   domains never interleave mid-line.  The Sweep/Pool progress contract
   serializes callbacks, so [last] needs no lock. *)
let progress_printer label =
  let last = ref (-1) in
  fun done_ total ->
    let pct = if total <= 0 then 100 else done_ * 100 / total in
    if pct > !last || done_ >= total then begin
      last := pct;
      output_string stderr (Printf.sprintf "\r%s: %d/%d" label done_ total);
      flush stderr
    end

let clear_progress () =
  output_string stderr ("\r" ^ String.make 40 ' ' ^ "\r");
  flush stderr
