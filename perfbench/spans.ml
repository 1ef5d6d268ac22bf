(* Spans recorded by the traced mode around the calls it makes into
   each layer.  A span is (id, name, parent, request, start, end); spans
   stay in memory and are written out as JSON when the run ends.  A
   layer's self time is its duration minus the durations of the spans
   whose parent it is. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1: top level *)
  req : int;  (* request (or batch) the span belongs to *)
  start_ns : int64;
  end_ns : int64;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  counts : (string, int) Hashtbl.t;
}

let create () = { spans = []; next_id = 0; counts = Hashtbl.create 16 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Time [f ()] as span [name]; [id] lets a caller hand the span's id to
   children recorded before it. *)
let record t ?id ~name ~parent ~req f =
  let id = match id with Some id -> id | None -> fresh_id t in
  let start_ns = Common.now_ns () in
  let r = f () in
  let end_ns = Common.now_ns () in
  t.spans <- { id; name; parent; req; start_ns; end_ns } :: t.spans;
  r

let count t name n =
  Hashtbl.replace t.counts name (n + Option.value (Hashtbl.find_opt t.counts name) ~default:0)

let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

let duration s = Common.ns_between s.start_ns s.end_ns

(* Σ self time (ns) and span count per name *)
let self_times t =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.0))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value (Hashtbl.find_opt child_ns s.id) ~default:0.0 in
      let total, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0) in
      Hashtbl.replace by_name s.name (total +. self, n + 1))
    t.spans;
  by_name

(* Σ wall time (ns) and span count per name, children included *)
let totals t =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let total, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0.0, 0) in
      Hashtbl.replace by_name s.name (total +. duration s, n + 1))
    t.spans;
  by_name

let lookup tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0)

let write_json t path =
  let spans = List.rev t.spans in
  let origin = match spans with [] -> 0L | s :: _ -> s.start_ns in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"spans\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}" s.id
            s.name s.parent s.req (Int64.sub s.start_ns origin) (Int64.sub s.end_ns origin))
        spans;
      output_string oc "],\"counts\":{";
      let counts = List.sort compare (List.of_seq (Hashtbl.to_seq t.counts)) in
      List.iteri
        (fun i (k, v) -> Printf.fprintf oc "%s%S:%d" (if i > 0 then "," else "") k v)
        counts;
      output_string oc "}}\n")

(* The analyzer with both entry points wrapped in spans named
   core.analyzer.<name>, parented to [!parent]; decides are counted per
   taskset.  Name and version are kept, so cache keys are unchanged. *)
let traced_analyzer t ~parent ~req (a : Core.Analyzer.t) =
  let name = "core.analyzer." ^ String.lowercase_ascii a.Core.Analyzer.name in
  {
    a with
    Core.Analyzer.decide =
      (fun ~fpga_area ts ->
        count t name 1;
        record t ~name ~parent:!parent ~req:!req (fun () -> a.Core.Analyzer.decide ~fpga_area ts));
    decide_all =
      (fun ~fpga_area tss ->
        count t name (Array.length tss);
        record t ~name ~parent:!parent ~req:!req (fun () ->
            a.Core.Analyzer.decide_all ~fpga_area tss));
  }

(* µs per decided taskset for each analyzer, and the total decide count *)
let analyzer_metrics t =
  let self = self_times t in
  let per name =
    let key = "core.analyzer." ^ name in
    let ns, _ = lookup self key in
    Common.mean_or_zero (ns /. 1e3) (counted t key)
  in
  let decides =
    List.fold_left (fun n a -> n + counted t ("core.analyzer." ^ a)) 0 [ "dp"; "gn1"; "gn2"; "nec" ]
  in
  Common.
    [
      metric "core.analyzer.dp_decide_us" "us" (per "dp");
      metric "core.analyzer.gn1_decide_us" "us" (per "gn1");
      metric "core.analyzer.gn2_decide_us" "us" (per "gn2");
      metric "core.analyzer.nec_decide_us" "us" (per "nec");
      metric "core.analyzer.decides" "count" (float_of_int decides);
    ]
