(* Tests for the FPGA device model: the 1-D contiguous allocator. *)

module Device = Fpga.Device

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let region = Alcotest.testable (fun fmt (r : Device.region) -> Format.fprintf fmt "[%d+%d]" r.start r.width)
    (fun (a : Device.region) b -> a.start = b.start && a.width = b.width)

(* --- 1-D device --- *)

let basic_placement () =
  let d : string Device.t = Device.create ~area:10 in
  check_int "free" 10 (Device.free_area d);
  let r1 = Device.place d ~tag:"a" ~width:4 in
  Alcotest.(check (option region)) "first fit at 0" (Some { Device.start = 0; width = 4 }) r1;
  let r2 = Device.place d ~tag:"b" ~width:3 in
  Alcotest.(check (option region)) "then at 4" (Some { Device.start = 4; width = 3 }) r2;
  check_int "occupied" 7 (Device.occupied_area d);
  check_int "free" 3 (Device.free_area d);
  check_bool "no block of 4" false (Device.fits_contiguous d 4);
  check_bool "total 3 fits" true (Device.fits_total d 3);
  Alcotest.(check (option region)) "reject too wide" None (Device.place d ~tag:"c" ~width:4)

let removal_and_holes () =
  let d : string Device.t = Device.create ~area:10 in
  ignore (Device.place d ~tag:"a" ~width:3);
  ignore (Device.place d ~tag:"b" ~width:3);
  ignore (Device.place d ~tag:"c" ~width:4);
  check_bool "remove b" true (Device.remove d ~equal:String.equal "b");
  check_bool "remove b again" false (Device.remove d ~equal:String.equal "b");
  check_int "free" 3 (Device.free_area d);
  check_int "largest block" 3 (Device.largest_free_block d);
  (* the hole is exactly [3,6) *)
  Alcotest.(check (list region)) "free blocks" [ { Device.start = 3; width = 3 } ] (Device.free_blocks d)

let strategies () =
  (* layout: [a:2][hole:3][b:2][hole:2][c:1], holes of width 3 and 2 *)
  let mk () =
    let d : string Device.t = Device.create ~area:10 in
    Device.place_at d ~tag:"a" { Device.start = 0; width = 2 };
    Device.place_at d ~tag:"b" { Device.start = 5; width = 2 };
    Device.place_at d ~tag:"c" { Device.start = 9; width = 1 };
    d
  in
  let d = mk () in
  Alcotest.(check (option region)) "first fit takes hole at 2"
    (Some { Device.start = 2; width = 2 })
    (Device.place ~strategy:Device.First_fit d ~tag:"x" ~width:2);
  let d = mk () in
  Alcotest.(check (option region)) "best fit takes hole at 7"
    (Some { Device.start = 7; width = 2 })
    (Device.place ~strategy:Device.Best_fit d ~tag:"x" ~width:2);
  let d = mk () in
  Alcotest.(check (option region)) "worst fit takes hole at 2"
    (Some { Device.start = 2; width = 2 })
    (Device.place ~strategy:Device.Worst_fit d ~tag:"x" ~width:2)

let compaction () =
  let d : string Device.t = Device.create ~area:10 in
  Device.place_at d ~tag:"a" { Device.start = 2; width = 2 };
  Device.place_at d ~tag:"b" { Device.start = 7; width = 2 };
  check_bool "fragmented: no block of 5" false (Device.fits_contiguous d 5);
  check_bool "fragmentation positive" true (Device.fragmentation d > 0.0);
  Device.compact d;
  check_bool "defragmented" true (Device.fits_contiguous d 6);
  check_int "still occupied 4" 4 (Device.occupied_area d);
  Alcotest.(check (list region)) "slid left"
    [ { Device.start = 0; width = 2 }; { Device.start = 2; width = 2 } ]
    (List.map snd (Device.placements d));
  Alcotest.(check (float 0.0)) "fragmentation zero" 0.0 (Device.fragmentation d)

let place_at_errors () =
  let d : string Device.t = Device.create ~area:10 in
  Device.place_at d ~tag:"a" { Device.start = 0; width = 5 };
  Alcotest.check_raises "overlap" (Invalid_argument "Device.place_at: region overlaps an existing placement")
    (fun () -> Device.place_at d ~tag:"b" { Device.start = 4; width = 2 });
  Alcotest.check_raises "out of range" (Invalid_argument "Device.place_at: region out of bounds")
    (fun () -> Device.place_at d ~tag:"b" { Device.start = 8; width = 3 });
  Alcotest.check_raises "width too large" (Invalid_argument "Device.place: width exceeds device area")
    (fun () -> ignore (Device.place d ~tag:"b" ~width:11));
  Alcotest.check_raises "zero width" (Invalid_argument "Device.place: width must be >= 1")
    (fun () -> ignore (Device.place d ~tag:"b" ~width:0))

(* random op sequences keep the accounting invariants *)
let prop_device_invariants =
  Core_helpers.qtest "random ops keep invariants"
    QCheck2.Gen.(list_size (int_range 1 60) (pair bool (int_range 1 5)))
    (fun ops ->
      let d : int Device.t = Device.create ~area:12 in
      let next = ref 0 in
      let live = ref [] in
      List.for_all
        (fun (is_place, width) ->
          (if is_place then begin
             match Device.place d ~tag:!next ~width with
             | Some _ ->
               live := !next :: !live;
               incr next
             | None -> ()
           end
           else
             match !live with
             | [] -> ()
             | tag :: rest ->
               ignore (Device.remove d ~equal:Int.equal tag);
               live := rest);
          (* invariants *)
          let placements = Device.placements d in
          let occupied = Device.occupied_area d in
          let sorted_ok =
            let rec go = function
              | (_, (a : Device.region)) :: ((_, b) :: _ as rest) ->
                a.start + a.width <= b.start && go rest
              | _ -> true
            in
            go placements
          in
          occupied + Device.free_area d = 12
          && occupied = List.length !live * 0
             + List.fold_left (fun acc (_, (r : Device.region)) -> acc + r.width) 0 placements
          && sorted_ok
          && Device.largest_free_block d <= Device.free_area d)
        ops)

let () =
  Alcotest.run "fpga"
    [
      ( "device",
        [
          Alcotest.test_case "basic placement" `Quick basic_placement;
          Alcotest.test_case "removal and holes" `Quick removal_and_holes;
          Alcotest.test_case "strategies" `Quick strategies;
          Alcotest.test_case "compaction" `Quick compaction;
          Alcotest.test_case "errors" `Quick place_at_errors;
          prop_device_invariants;
        ] );
    ]
