type region = { start : int; width : int }

(* Placements kept sorted by start column; free blocks are derived.  The
   device holds at most a few dozen concurrent placements, so linear scans
   are simpler and fast enough. *)
type 'a t = { total : int; mutable placed : ('a * region) list }

let create ~area =
  if area < 1 then invalid_arg "Device.create: area must be >= 1";
  { total = area; placed = [] }

let free_blocks t =
  let rec go cursor = function
    | [] -> if cursor < t.total then [ { start = cursor; width = t.total - cursor } ] else []
    | (_, r) :: rest ->
      let gap = r.start - cursor in
      let tail = go (r.start + r.width) rest in
      if gap > 0 then { start = cursor; width = gap } :: tail else tail
  in
  go 0 t.placed

type strategy = First_fit | Best_fit | Worst_fit

let insert_sorted t tag region =
  let rec go = function
    | [] -> [ (tag, region) ]
    | ((_, r) :: _) as rest when region.start < r.start -> (tag, region) :: rest
    | p :: rest -> p :: go rest
  in
  t.placed <- go t.placed

let place ?(strategy = First_fit) t ~tag ~width =
  if width < 1 then invalid_arg "Device.place: width must be >= 1";
  if width > t.total then invalid_arg "Device.place: width exceeds device area";
  let candidates = List.filter (fun r -> r.width >= width) (free_blocks t) in
  let chosen =
    match (strategy, candidates) with
    | _, [] -> None
    | First_fit, c :: _ -> Some c
    | Best_fit, c :: cs ->
      Some (List.fold_left (fun best r -> if r.width < best.width then r else best) c cs)
    | Worst_fit, c :: cs ->
      Some (List.fold_left (fun best r -> if r.width > best.width then r else best) c cs)
  in
  match chosen with
  | None -> None
  | Some block ->
    let region = { start = block.start; width } in
    insert_sorted t tag region;
    Some region

let overlaps a b = a.start < b.start + b.width && b.start < a.start + a.width

let place_at t ~tag region =
  if region.start < 0 || region.width < 1 || region.start + region.width > t.total then
    invalid_arg "Device.place_at: region out of bounds";
  if List.exists (fun (_, r) -> overlaps r region) t.placed then
    invalid_arg "Device.place_at: region overlaps an existing placement";
  insert_sorted t tag region

let clear t = t.placed <- []
