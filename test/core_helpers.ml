(* Shared helpers for the test suites. *)

let task name c d t a =
  Model.Task.of_decimal ~name ~exec:c ~deadline:d ~period:t ~area:a ()

let taskset rows = Model.Taskset.of_list (List.map (fun (n, c, d, t, a) -> task n c d t a) rows)

(* Section 6's combined test: accept iff DP, GN1 or GN2 accepts *)
let any_accepts ~fpga_area ts =
  List.exists (fun a -> Core.Analyzer.accepts a ~fpga_area ts) Core.Analyzer.defaults

let rat_testable = Alcotest.testable Rat.pp Rat.equal
let check_rat msg expected actual = Alcotest.check rat_testable msg expected actual

let bignum_testable = Alcotest.testable Bignum.pp Bignum.equal
let check_bignum msg expected actual = Alcotest.check bignum_testable msg expected actual

let time_testable = Alcotest.testable Model.Time.pp Model.Time.equal
let check_time msg expected actual = Alcotest.check time_testable msg expected actual

(* [rm -r path] *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] on a new empty directory [redf-test-TAG-PID-N] under the
   system temp dir, removed with everything in it when [f] returns or
   raises *)
let temp_dirs_made = ref 0

let with_temp_dir tag f =
  incr temp_dirs_made;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "redf-test-%s-%d-%d" tag (Unix.getpid ()) !temp_dirs_made)
  in
  if Sys.file_exists dir then remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* qcheck -> alcotest bridge with a fixed test count *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* fixed tasksets with 16-digit times: every product of two of their
   ticks overflows an int, so the analyzers decide them over Bignum *)
let sixteen_digit =
  taskset
    [
      ("a", "1234567890123.456", "4567890123456.789", "4567890123456.789", 3);
      ("b", "987654321098.765", "3456789012345.678", "3456789012345.678", 2);
      ("c", "2345678901234.567", "8765432109876.543", "8765432109876.543", 4);
    ]

let sixteen_digit_constrained =
  taskset
    [
      ("a", "1234567890123.456", "3333333333333.333", "4567890123456.789", 3);
      ("b", "987654321098.765", "3456789012345.678", "2222222222222.222", 2);
      ("c", "2345678901234.567", "8765432109876.543", "8765432109876.543", 4);
    ]
