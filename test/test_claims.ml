(* The paper's Section 6 claims, asserted on the committed figure
   series.  CI regenerates results/fig{3a,3b,4a,4b}.csv byte for byte
   with [redf sweep]; this test reads them and holds each claim with
   the margins the bench harness used to print them with: a method's
   score is its mean acceptance over the utilization points that drew
   at least one taskset. *)

let read_series figure =
  let path = Filename.concat (Filename.concat Filename.parent_dir_name "results") (figure ^ ".csv") in
  match String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) with
  | [] -> Alcotest.failf "%s: empty" path
  | header :: rows ->
    let columns = String.split_on_char ',' header in
    let rows =
      List.filter_map
        (fun row ->
          if row = "" then None
          else
            let cells = String.split_on_char ',' row in
            if List.length cells <> List.length columns then Alcotest.failf "%s: ragged row %S" path row;
            Some (List.combine columns (List.map float_of_string cells)))
        rows
    in
    (path, rows)

(* mean acceptance of [method_] over the populated points *)
let score (path, rows) method_ =
  let populated = List.filter (fun row -> List.assoc "generated" row > 0.0) rows in
  if populated = [] then Alcotest.failf "%s: no populated point" path;
  match List.assoc_opt method_ (List.hd populated) with
  | None -> Alcotest.failf "%s: no column %s" path method_
  | Some _ ->
    List.fold_left (fun acc row -> acc +. List.assoc method_ row) 0.0 populated
    /. float_of_int (List.length populated)

let claim figure label holds =
  Alcotest.test_case (figure ^ ": " ^ label) `Quick (fun () ->
      let series = read_series figure in
      let s = score series in
      let dp = s "DP" and gn1 = s "GN1" and gn2 = s "GN2" and sim = s "SIM-NF" in
      if not (holds ~dp ~gn1 ~gn2 ~sim) then
        Alcotest.failf "%s violated: mean acceptance DP %.4f GN1 %.4f GN2 %.4f SIM-NF %.4f" label dp gn1
          gn2 sim)

let pessimistic ~dp ~gn1 ~gn2 ~sim = dp <= sim && gn1 <= sim && gn2 <= sim

let () =
  Alcotest.run "claims"
    [
      ( "section 6",
        [
          claim "fig3a" "tests pessimistic vs simulation" pessimistic;
          claim "fig3a" "GN1 best among tests (small task count)" (fun ~dp ~gn1 ~gn2 ~sim:_ ->
              gn1 >= dp -. 0.02 && gn1 >= gn2 -. 0.02);
          claim "fig3b" "tests pessimistic vs simulation" pessimistic;
          claim "fig3b" "DP best among tests (large task count)" (fun ~dp ~gn1 ~gn2 ~sim:_ ->
              dp >= gn1 -. 0.02 && dp >= gn2 -. 0.02);
          claim "fig4a" "all tests poor on spatially-heavy sets" (fun ~dp ~gn1 ~gn2 ~sim:_ ->
              dp < 0.1 && gn1 < 0.1 && gn2 < 0.1);
          claim "fig4b" "GN1 best on temporally-heavy sets" (fun ~dp ~gn1 ~gn2 ~sim:_ ->
              gn1 >= dp && gn1 >= gn2);
          claim "fig4b" "DP worst on temporally-heavy sets" (fun ~dp ~gn1 ~gn2 ~sim:_ ->
              dp <= gn1 && dp <= gn2);
        ] );
    ]
