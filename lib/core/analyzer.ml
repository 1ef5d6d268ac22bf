type t = {
  name : string;
  cite : string;
  version : string;
  decide : fpga_area:int -> Model.Taskset.t -> Verdict.t;
  decide_all : fpga_area:int -> Model.Taskset.t array -> Verdict.t array;
}

let make ~name ~cite ~version decide =
  let decide_all ~fpga_area tss = Array.map (fun ts -> decide ~fpga_area ts) tss in
  { name; cite; version; decide; decide_all }

let guan = "Guan, Gu, Deng, Liu, Yu (IPDPS 2007)"

let dp =
  make ~name:"DP" ~cite:("Theorem 1, " ^ guan ^ ", after Danne & Platzner") ~version:"1" Dp.decide

let dp_original =
  make ~name:"DP-original"
    ~cite:"Danne & Platzner's uncorrected bound (real-valued areas)" ~version:"1"
    Dp.decide_original

let gn1 =
  make ~name:"GN1"
    ~cite:("Theorem 2, " ^ guan ^ " (strict inequality, DESIGN.md section 2)")
    ~version:"1" Gn1.decide

let gn1_printed =
  make ~name:"GN1-printed"
    ~cite:"Theorem 2 as printed ((A(H) - A_k) bound constant)" ~version:"1"
    Gn1.decide_printed

let gn2 =
  make ~name:"GN2"
    ~cite:("Theorem 3, " ^ guan ^ " (typo-corrected, DESIGN.md section 2)")
    ~version:"1" Gn2.decide

(* the necessary conditions phrased as an analyzer so sweeps and the
   server can serve them; an empty check list encodes "nothing to
   refute".  A check fails, with a note, for each violation its task
   takes part in; the device-wide one fails every check.  Notes never
   name a task position, so deciding a permuted taskset permutes the
   checks and nothing else — the contract the verdict cache's remap
   relies on. *)
let nec_decide ~fpga_area ts =
  match Feasibility.check ~fpga_area ts with
  | [] -> Verdict.make ~test_name:"NEC" ~checks:[]
  | violations ->
    let n = Model.Taskset.size ts in
    let notes = Array.make n [] in
    let add note i = notes.(i) <- note :: notes.(i) in
    List.iter
      (function
        | Feasibility.Exec_exceeds_window i -> add "needs C > min(D,T)" i
        | Feasibility.Device_overloaded { us } ->
          let note = Format.asprintf "system utilization %a exceeds the device area" Rat.pp_approx us in
          for i = 0 to n - 1 do
            add note i
          done
        | Feasibility.Clique_overloaded { tasks; load } ->
          let note =
            Format.asprintf "one of %d mutually-exclusive tasks demanding %a > 1 of a serial resource"
              (List.length tasks) Rat.pp_approx load
          in
          List.iter (add note) tasks)
      violations;
    let check i =
      let note = String.concat "; " (List.sort_uniq String.compare notes.(i)) in
      {
        Verdict.task_index = i;
        satisfied = String.equal note "";
        lhs = Rat.zero;
        rhs = Rat.zero;
        note;
      }
    in
    Verdict.make ~test_name:"NEC" ~checks:(List.init n check)

let nec =
  make ~name:"NEC"
    ~cite:"necessary feasibility conditions (infeasible under any scheduler when violated)"
    ~version:"2" nec_decide

let defaults = [ dp; gn1; gn2 ]
let builtins = defaults @ [ dp_original; gn1_printed; nec ]

(* --- the dynamic registry --- *)

(* analyzers contributed by higher layers (lib/exact cannot be a core
   dependency), appended after the builtins; parsers resolve
   parameterized names such as "approx[0.01]" that cannot be enumerated.
   Both lists live in Atomics so registration from any domain is safe;
   registration is idempotent (same name / syntax: kept, not replaced),
   so an `ensure ()`-style hook can run any number of times. *)

type parser_entry = { syntax : string; parse : string -> (t, string) result option }

let registered : t list Atomic.t = Atomic.make []
let parsers : parser_entry list Atomic.t = Atomic.make []

let rec atomic_update r f =
  let old = Atomic.get r in
  if not (Atomic.compare_and_set r old (f old)) then atomic_update r f

let canonical_name n = String.lowercase_ascii (String.trim n)

let all () = builtins @ Atomic.get registered

let register a =
  atomic_update registered (fun l ->
      if List.exists (fun b -> canonical_name b.name = canonical_name a.name) (builtins @ l) then l
      else l @ [ a ])

let register_parser ~syntax parse =
  atomic_update parsers (fun l ->
      if List.exists (fun p -> p.syntax = syntax) l then l else l @ [ { syntax; parse } ])

let known_names () =
  List.map (fun a -> a.name) (all ()) @ List.map (fun p -> p.syntax) (Atomic.get parsers)

let of_name name =
  let target = canonical_name name in
  match List.find_opt (fun a -> canonical_name a.name = target) (all ()) with
  | Some a -> Ok a
  | None -> (
    match List.find_map (fun p -> p.parse target) (Atomic.get parsers) with
    | Some result -> result
    | None ->
      Error
        (Printf.sprintf "unknown analyzer %S (use %s)" name (String.concat ", " (known_names ()))))

let of_names names =
  let parts =
    String.split_on_char ',' names |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "no analyzer named"
  else
    List.fold_left
      (fun acc part ->
        match (acc, of_name part) with
        | Error _, _ -> acc
        | Ok _, Error e -> Error e
        | Ok l, Ok a -> Ok (l @ [ a ]))
      (Ok []) parts

let accepts a ~fpga_area ts = Verdict.accepted (a.decide ~fpga_area ts)
