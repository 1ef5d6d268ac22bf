(* Environment knobs for the benchmark harness; bench/main.ml lists
   them.  A missing, malformed or non-positive value falls back to the
   default. *)

let int_env name default =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let samples = int_env "REDF_SAMPLES" 500
let seed = int_env "REDF_SEED" 42
let skip_micro = Sys.getenv_opt "REDF_SKIP_MICRO" <> None

(* results-file plumbing lives in Bench.Env (shared with redf
   bench-core); re-exported here under the harness's names *)
let results_dir = Bench.Env.results_dir
let write_file = Bench.Env.write_file

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
