module Columns = Model.Taskset.Columns

(* what an owner stores per canonical verdict: how a fresh verdict
   becomes an entry, and how an entry follows a request's task order *)
type 'v store = {
  lru : 'v Sharded.t;
  of_verdict : Core.Verdict.t -> 'v;
  remap : int array -> 'v -> 'v;
}

type t = Core.Verdict.t store
type rendered = Core.Verdict.Rendered.t store

let make ~of_verdict ~remap ?metrics_prefix ?(shards = 1) ~capacity () =
  { lru = Sharded.create ?metrics_prefix ~shards ~capacity (); of_verdict; remap }

let create = make ~of_verdict:Fun.id ~remap:Core.Verdict.remap

let create_rendered =
  make ~of_verdict:Core.Verdict.Rendered.of_verdict ~remap:Core.Verdict.Rendered.remap

(* The one dedup / batch-decide path, for a probe's misses
   ([cached.(i) = None]): the distinct missing canonical tasksets
   (first-occurrence order) are decided in one [decide_all] call and
   stored in the owner's form.  Fresh entries are looked up in a local
   table rather than re-probed, so an eviction between put and stitch
   cannot force a recompute. *)
let fill t ~analyzer ~fpga_area ~keys ~canonical cached =
  let seen = Hashtbl.create 16 in
  let missing = ref [] in
  Array.iteri
    (fun i c ->
      match c with
      | Some _ -> ()
      | None ->
        let k = keys.(i) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          missing := (k, canonical i) :: !missing
        end)
    cached;
  let missing = Array.of_list (List.rev !missing) in
  let fresh = analyzer.Core.Analyzer.decide_all ~fpga_area (Array.map snd missing) in
  let computed = Hashtbl.create 16 in
  Array.iteri
    (fun j (k, _) ->
      let e = t.of_verdict fresh.(j) in
      Sharded.put t.lru k e;
      Hashtbl.add computed k e)
    missing;
  Array.mapi
    (fun i c ->
      match c with
      | Some e -> e
      | None -> (
        match Hashtbl.find_opt computed keys.(i) with
        | Some e -> e
        | None -> assert false (* every miss key was just computed *)))
    cached

(* the canonical entry for each key: every key is probed once, and
   only a batch with a miss builds the dedup tables *)
let entries t ~analyzer ~fpga_area ~keys ~canonical =
  let cached = Array.map (Sharded.find t.lru) keys in
  if Array.for_all Option.is_some cached then Array.map Option.get cached
  else fill t ~analyzer ~fpga_area ~keys ~canonical cached

let decide_columns t ~analyzer ~fpga_area cols =
  let orders = Array.map Canonical.order_cols cols in
  let keys = Array.mapi (fun i c -> Canonical.key_of_order ~analyzer ~fpga_area c orders.(i)) cols in
  let canonical i = Canonical.apply_cols orders.(i) cols.(i) in
  Array.mapi (fun i e -> t.remap orders.(i) e) (entries t ~analyzer ~fpga_area ~keys ~canonical)

let decide_all t ~analyzer ~fpga_area tss =
  decide_columns t ~analyzer ~fpga_area (Array.map Columns.of_taskset tss)

let decide t ~analyzer ~fpga_area ts = (decide_all t ~analyzer ~fpga_area [| ts |]).(0)

let decide_canonical t ~analyzer ~fpga_area ~key ~canonical ~order =
  let e =
    match Sharded.find t.lru key with
    | Some e -> e
    | None -> (fill t ~analyzer ~fpga_area ~keys:[| key |] ~canonical:(fun _ -> canonical) [| None |]).(0)
  in
  t.remap order e

let stats t = Sharded.stats t.lru
let shards t = Sharded.shards t.lru
