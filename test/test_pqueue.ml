(* Tests for the binary min-heap, including a model-based property check
   against sorted lists.  The heap exports what the simulator runs
   (create, push, peek, pop_exn); the option-returning pop, building a
   heap from a list and draining it are written here on top of them. *)

let pop q = match Pqueue.peek q with None -> None | Some _ -> Some (Pqueue.pop_exn q)

let drain q =
  let rec go acc = match pop q with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let of_list ~cmp l =
  let q = Pqueue.create ~cmp in
  List.iter (Pqueue.push q) l;
  q

let basics () =
  let q = Pqueue.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "peek empty" None (Pqueue.peek q);
  Pqueue.push q 5;
  Pqueue.push q 3;
  Pqueue.push q 8;
  Alcotest.(check (option int)) "peek min" (Some 3) (Pqueue.peek q);
  Alcotest.(check int) "pop 3" 3 (Pqueue.pop_exn q);
  Alcotest.(check int) "pop 5" 5 (Pqueue.pop_exn q);
  Alcotest.(check int) "pop 8" 8 (Pqueue.pop_exn q);
  Alcotest.check_raises "pop empty raises" (Invalid_argument "Pqueue.pop_exn: empty heap")
    (fun () -> ignore (Pqueue.pop_exn q))

let duplicates () =
  let q = of_list ~cmp:Int.compare [ 2; 2; 1; 2 ] in
  Alcotest.(check (list int)) "drain" [ 1; 2; 2; 2 ] (drain q);
  Alcotest.(check (option int)) "drained" None (Pqueue.peek q)

let custom_order () =
  let q = Pqueue.create ~cmp:(fun a b -> compare b a) in
  List.iter (Pqueue.push q) [ 1; 5; 3 ];
  Alcotest.(check (list int)) "max-heap drain" [ 5; 3; 1 ] (drain q)

let prop_drain_sorts =
  Core_helpers.qtest "drain = List.sort" QCheck2.Gen.(list (int_range (-1000) 1000)) (fun l ->
      let q = of_list ~cmp:Int.compare l in
      drain q = List.sort Int.compare l)

let prop_interleaved =
  (* model-based: interleave pushes and pops, compare against a sorted-list
     model *)
  Core_helpers.qtest "interleaved ops match model"
    QCheck2.Gen.(list (pair bool (int_range 0 100)))
    (fun ops ->
      let q = Pqueue.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            Pqueue.push q v;
            model := List.sort Int.compare (v :: !model);
            true
          end
          else begin
            match (pop q, !model) with
            | None, [] -> true
            | Some x, m :: rest ->
              model := rest;
              x = m
            | _ -> false
          end)
        ops)

let prop_peek_is_min =
  Core_helpers.qtest "peek is the minimum" QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 1000))
    (fun l ->
      let q = of_list ~cmp:Int.compare l in
      Pqueue.peek q = Some (List.fold_left min (List.hd l) l))

(* Equal keys: the heap must hand out tied elements in the order a
   plain swapping binary heap does, since callers may rely on it.  The
   reference below is that heap (sift by swapping); elements are
   (key, tag) pairs compared on the key alone. *)
module Swap_heap = struct
  type t = { mutable data : (int * int) array; mutable size : int }

  let cmp (a, _) (b, _) = Int.compare a b
  let swap t i j =
    let x = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- x

  let push t x =
    if t.size = Array.length t.data then
      t.data <- Array.append t.data (Array.make (max 8 t.size) x);
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    let rec up i =
      let parent = (i - 1) / 2 in
      if i > 0 && cmp t.data.(i) t.data.(parent) < 0 then begin
        swap t i parent;
        up parent
      end
    in
    up (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      t.data.(0) <- t.data.(t.size);
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let m = if l < t.size && cmp t.data.(l) t.data.(i) < 0 then l else i in
        let m = if r < t.size && cmp t.data.(r) t.data.(m) < 0 then r else m in
        if m <> i then begin
          swap t i m;
          down m
        end
      in
      down 0;
      Some top
    end
end

let prop_tie_order =
  Core_helpers.qtest "tied keys pop as in a swapping heap"
    QCheck2.Gen.(list (pair bool (int_range 0 5)))
    (fun ops ->
      let q = Pqueue.create ~cmp:Swap_heap.cmp in
      let reference = { Swap_heap.data = [||]; size = 0 } in
      List.for_all
        (fun (tag, (is_push, key)) ->
          if is_push then begin
            Pqueue.push q (key, tag);
            Swap_heap.push reference (key, tag);
            true
          end
          else pop q = Swap_heap.pop reference)
        (List.mapi (fun tag op -> (tag, op)) ops))

let () =
  Alcotest.run "pqueue"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick basics;
          Alcotest.test_case "duplicates" `Quick duplicates;
          Alcotest.test_case "custom order" `Quick custom_order;
        ] );
      ("properties", [ prop_drain_sorts; prop_interleaved; prop_peek_is_min; prop_tie_order ]);
    ]
