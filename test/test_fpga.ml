(* Tests for the FPGA device model: the 1-D contiguous allocator. *)

module Device = Fpga.Device

let region = Alcotest.testable (fun fmt (r : Device.region) -> Format.fprintf fmt "[%d+%d]" r.start r.width)
    (fun (a : Device.region) b -> a.start = b.start && a.width = b.width)

(* --- 1-D device --- *)

let basic_placement () =
  let d : string Device.t = Device.create ~area:10 in
  let r1 = Device.place d ~tag:"a" ~width:4 in
  Alcotest.(check (option region)) "first fit at 0" (Some { Device.start = 0; width = 4 }) r1;
  let r2 = Device.place d ~tag:"b" ~width:3 in
  Alcotest.(check (option region)) "then at 4" (Some { Device.start = 4; width = 3 }) r2;
  Alcotest.(check (option region)) "reject too wide" None (Device.place d ~tag:"c" ~width:4);
  Alcotest.(check (option region)) "the last 3 columns" (Some { Device.start = 7; width = 3 })
    (Device.place d ~tag:"c" ~width:3)

(* a hole between forced placements takes exactly its width; [clear]
   frees every column *)
let removal_and_holes () =
  let d : string Device.t = Device.create ~area:10 in
  Device.place_at d ~tag:"a" { Device.start = 0; width = 3 };
  Device.place_at d ~tag:"c" { Device.start = 6; width = 4 };
  Alcotest.(check (option region)) "no block of 4" None (Device.place d ~tag:"b" ~width:4);
  (* the hole is exactly [3,6) *)
  Alcotest.(check (option region)) "fills the hole" (Some { Device.start = 3; width = 3 })
    (Device.place d ~tag:"b" ~width:3);
  Alcotest.(check (option region)) "full" None (Device.place d ~tag:"x" ~width:1);
  Device.clear d;
  Alcotest.(check (option region)) "whole device after clear"
    (Some { Device.start = 0; width = 10 })
    (Device.place d ~tag:"x" ~width:10)

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

(* random placements, observed through the regions [place] returns:
   each lies on the device, none overlaps a live one, and [None] comes
   only when no gap between the live regions is wide enough — then the
   device is cleared.  The flag picks first or best fit. *)
let prop_device_invariants =
  Core_helpers.qtest "random ops keep invariants"
    QCheck2.Gen.(list_size (int_range 1 60) (pair bool (int_range 1 5)))
    (fun ops ->
      let area = 12 in
      let d : int Device.t = Device.create ~area in
      let live = ref [] in
      let overlaps (a : Device.region) (b : Device.region) =
        a.start < b.start + b.width && b.start < a.start + a.width
      in
      let widest_gap () =
        let sorted = List.sort (fun (a : Device.region) b -> Int.compare a.start b.start) !live in
        let cursor, widest =
          List.fold_left
            (fun (cursor, widest) (r : Device.region) ->
              (r.start + r.width, max widest (r.start - cursor)))
            (0, 0) sorted
        in
        max widest (area - cursor)
      in
      List.for_all
        (fun (first_fit, width) ->
          let strategy = if first_fit then Device.First_fit else Device.Best_fit in
          match Device.place ~strategy d ~tag:(List.length !live) ~width with
          | Some r ->
            let ok =
              r.width = width && r.start >= 0
              && r.start + r.width <= area
              && not (List.exists (overlaps r) !live)
            in
            live := r :: !live;
            ok
          | None ->
            let ok = widest_gap () < width in
            Device.clear d;
            live := [];
            ok)
        ops)

let () =
  Alcotest.run "fpga"
    [
      ( "device",
        [
          Alcotest.test_case "basic placement" `Quick basic_placement;
          Alcotest.test_case "removal and holes" `Quick removal_and_holes;
          Alcotest.test_case "strategies" `Quick strategies;
          Alcotest.test_case "errors" `Quick place_at_errors;
          prop_device_invariants;
        ] );
    ]
