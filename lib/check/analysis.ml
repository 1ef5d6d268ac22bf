(* One pass over one cmt.  The walk is a Tast_iterator with four
   overrides: [structure] (floating-allow scope + module tags), [expr]
   (denied identifiers, the plain-int Ticks instance, float literals,
   polymorphic-compare instantiations, allow frames on expressions),
   [module_expr] (the plain-int Ticks instance named as a module) and
   [value_binding] (module-level mutable state, allow frames on
   bindings).

   Everything here is deterministic by construction: cmts are read one
   at a time, findings accumulate in traversal order and are sorted
   before being returned. *)

type result = { file : string; modname : string; findings : Finding.t list }

(* --- path normalization and matching --- *)

(* dune-mangled unit names (Core__Dbf) print with "__"; fold them onto
   the dotted form so one spelling matches both *)
let normalize name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let components s = String.split_on_char '.' (normalize s)

let rec list_suffix ~suffix l =
  if List.length suffix > List.length l then false
  else if List.length suffix = List.length l then List.equal String.equal suffix l
  else match l with [] -> false | _ :: rest -> list_suffix ~suffix rest

let rec list_prefix ~prefix l =
  match (prefix, l) with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, x :: xs -> String.equal p x && list_prefix ~prefix:ps xs

(* Does use-site path [p] (possibly shortened by aliases or locality)
   denote the fully-qualified [denied] constructor?  Qualified paths
   match by component suffix; a bare local name additionally requires
   the defining unit to agree with the denied path's prefix. *)
let path_matches ~mod_components ~denied p =
  let pc = components p and dc = components denied in
  list_suffix ~suffix:pc dc
  && (List.length pc >= 2
     ||
     let rec drop_last = function [] | [ _ ] -> [] | x :: rest -> x :: drop_last rest in
     list_prefix ~prefix:mod_components (drop_last dc))

let ident_matches ~denied p = String.equal (normalize p) denied

(* --- type scanning --- *)

let rec scan_type ~through_arrows ~depth ~on_constr ty =
  if depth <= 8 then
    match Types.get_desc ty with
    | Types.Tconstr (path, args, _) ->
      let name = Path.name path in
      if not (on_constr name) then
        List.iter (scan_type ~through_arrows ~depth:(depth + 1) ~on_constr) args
    | Types.Ttuple l -> List.iter (scan_type ~through_arrows ~depth:(depth + 1) ~on_constr) l
    | Types.Tarrow (_, a, b, _) ->
      if through_arrows then begin
        scan_type ~through_arrows ~depth:(depth + 1) ~on_constr a;
        scan_type ~through_arrows ~depth:(depth + 1) ~on_constr b
      end
    | Types.Tlink t | Types.Tsubst (t, _) -> scan_type ~through_arrows ~depth ~on_constr t
    | _ -> ()

(* first ordered-type hit in an instantiation, with its message *)
let find_ordered_type ~mod_components ty =
  let hit = ref None in
  scan_type ~through_arrows:true ~depth:0 ty ~on_constr:(fun name ->
      match
        List.find_opt
          (fun (denied, _) -> path_matches ~mod_components ~denied name)
          Rules.ordered_types
      with
      | Some (denied, why) ->
        (match !hit with None -> hit := Some (denied, why) | Some _ -> ());
        true
      | None -> false);
  !hit

let type_mentions_float ty =
  let hit = ref false in
  scan_type ~through_arrows:true ~depth:0 ty ~on_constr:(fun name ->
      if String.equal name "float" || String.equal (normalize name) "Stdlib.Float.t" then begin
        hit := true;
        true
      end
      else false);
  !hit

(* mutable / safe head classification for a module-level binding type;
   arrows at any level mean the state is created per call, not shared *)
let rec binding_mutability ~depth ty =
  if depth > 8 then `Safe
  else
    match Types.get_desc ty with
    | Types.Tarrow _ -> `Safe
    | Types.Tconstr (path, args, _) ->
      let name = normalize (Path.name path) in
      if List.exists (String.equal name) Rules.safe_type_heads then `Safe
      else if List.exists (String.equal name) Rules.mutable_type_heads then `Mutable name
      else
        List.fold_left
          (fun acc a ->
            match acc with `Mutable _ -> acc | `Safe -> binding_mutability ~depth:(depth + 1) a)
          `Safe args
    | Types.Ttuple l ->
      List.fold_left
        (fun acc a ->
          match acc with `Mutable _ -> acc | `Safe -> binding_mutability ~depth:(depth + 1) a)
        `Safe l
    | Types.Tlink t | Types.Tsubst (t, _) -> binding_mutability ~depth t
    | _ -> `Safe

(* --- [@redf.allow] parsing --- *)

type allow_parse =
  | Not_relevant
  | Allow of { rule : Rules.rule; justification : string; loc : Location.t }
  | Malformed of { loc : Location.t; reason : string }

let string_const (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
  | _ -> None

let parse_allow (attr : Parsetree.attribute) =
  if not (String.equal attr.Parsetree.attr_name.Location.txt "redf.allow") then Not_relevant
  else begin
    let loc = attr.Parsetree.attr_loc in
    let malformed reason = Malformed { loc; reason } in
    let with_rule rule_name justification =
      match Rules.of_name rule_name with
      | Some rule -> Allow { rule; justification; loc }
      | None ->
        malformed
          (Printf.sprintf "unknown rule %S (known rules: %s)" rule_name
             (String.concat ", " (List.map Rules.name Rules.all)))
    in
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr [ { Parsetree.pstr_desc = Parsetree.Pstr_eval (e, _); _ } ] -> (
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_apply (f, [ (_, arg) ]) -> (
        match (string_const f, string_const arg) with
        | Some rule_name, Some justification when String.trim justification <> "" ->
          with_rule rule_name justification
        | Some _, Some _ -> malformed "empty justification string"
        | _ -> malformed "expected [@redf.allow \"rule\" \"justification\"]")
      | Parsetree.Pexp_tuple [ a; b ] -> (
        match (string_const a, string_const b) with
        | Some rule_name, Some justification when String.trim justification <> "" ->
          with_rule rule_name justification
        | Some _, Some _ -> malformed "empty justification string"
        | _ -> malformed "expected [@redf.allow \"rule\" \"justification\"]")
      | Parsetree.Pexp_constant _ ->
        malformed "missing justification: write [@redf.allow \"rule\" \"why this is safe\"]"
      | _ -> malformed "expected [@redf.allow \"rule\" \"justification\"]")
    | _ -> malformed "expected [@redf.allow \"rule\" \"justification\"]"
  end

(* --- the pass --- *)

type frame = { f_rule : Rules.rule; f_loc : Location.t; mutable f_used : bool }

type state = {
  enabled : Rules.rule list;
  file : string;
  mod_components : string list;
  tags : Rules.rule list;
  mutable allows : frame list;  (* innermost first *)
  mutable expr_depth : int;
  mutable acc : Finding.t list;
}

let position (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let add_finding st f = st.acc <- f :: st.acc

(* meta findings (broken suppressions) are never themselves
   suppressible, otherwise an allow could hide its own syntax error *)
let meta_error st ~loc msg =
  let line, col = position loc in
  add_finding st (Finding.error ~rule:"allow-syntax" ~file:st.file ~line ~col msg)

let emit ?scope st rule ~loc msg =
  let in_scope =
    match scope with Some s -> s | None -> Rules.in_scope rule ~file:st.file ~tags:st.tags
  in
  if List.mem rule st.enabled && in_scope then begin
    match List.find_opt (fun f -> f.f_rule = rule) st.allows with
    | Some frame -> frame.f_used <- true
    | None ->
      let line, col = position loc in
      add_finding st (Finding.error ~rule:(Rules.name rule) ~file:st.file ~line ~col msg)
  end

let push_allows st attrs =
  let before = st.allows in
  List.iter
    (fun attr ->
      match parse_allow attr with
      | Not_relevant -> ()
      | Malformed { loc; reason } -> meta_error st ~loc reason
      | Allow { rule; justification = _; loc } ->
        st.allows <- { f_rule = rule; f_loc = loc; f_used = false } :: st.allows)
    attrs;
  before

let pop_allows st before =
  let rec unwind l =
    if l != before then
      match l with
      | [] -> ()
      | frame :: rest ->
        if (not frame.f_used) && List.mem frame.f_rule st.enabled then begin
          let line, col = position frame.f_loc in
          add_finding st
            (Finding.warning ~rule:"unused-allow" ~file:st.file ~line ~col
               (Printf.sprintf "[@redf.allow %S] suppresses nothing here"
                  (Rules.name frame.f_rule)))
        end;
        unwind rest
  in
  unwind st.allows;
  st.allows <- before

let check_ident st ~loc path =
  let n = Path.name path in
  List.iter
    (fun (denied, why) ->
      if ident_matches ~denied n then
        emit st Rules.Det_purity ~loc
          (Printf.sprintf "%s in a deterministic module: %s" denied why))
    Rules.det_denied_idents;
  List.iter
    (fun (denied, why) ->
      if ident_matches ~denied n then
        emit st Rules.Exact_arith ~loc (Printf.sprintf "%s in an exact decide path: %s" denied why))
    Rules.exact_denied_idents

(* a value or module path inside the plain-int Ticks instance *)
let check_plain_int st ~loc path =
  if list_prefix ~prefix:(components Rules.plain_int_module) (components (Path.name path)) then
    emit st Rules.Exact_arith ~loc
      ~scope:(Rules.plain_int_scope ~file:st.file ~tags:st.tags)
      (Printf.sprintf
         "%s outside the generated ranged instances: its ints wrap silently, so only a decide \
          behind a range check may use it"
         Rules.plain_int_module)

let check_poly_compare st ~loc path ty =
  let n = normalize (Path.name path) in
  if List.exists (fun d -> String.equal (normalize d) n) Rules.poly_compare_idents then begin
    (match find_ordered_type ~mod_components:st.mod_components ty with
     | Some (denied, why) ->
       emit st Rules.Poly_compare ~loc
         (Printf.sprintf "polymorphic %s instantiated at %s: %s"
            (List.nth (components n) (List.length (components n) - 1))
            denied why)
     | None -> ());
    if type_mentions_float ty then
      emit st Rules.Exact_arith ~loc
        (Printf.sprintf "float comparison via polymorphic %s: verdicts must not depend on float \
                         rounding" n)
  end

let check_value_binding st (vb : Typedtree.value_binding) =
  if st.expr_depth = 0 then begin
    match binding_mutability ~depth:0 vb.Typedtree.vb_pat.Typedtree.pat_type with
    | `Safe -> ()
    | `Mutable head ->
      emit st Rules.Domain_safety ~loc:vb.Typedtree.vb_pat.Typedtree.pat_loc
        (Printf.sprintf
           "module-level mutable state (%s) reachable from pool workers: wrap it in Atomic, \
            guard it with a Mutex, or [@redf.allow \"domain-safety\" \"...\"] it with the \
            protecting invariant"
           head)
  end

let collect_tags (str : Typedtree.structure) =
  List.filter_map
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_attribute attr ->
        Rules.tag_of_attribute attr.Parsetree.attr_name.Location.txt
      | _ -> None)
    str.Typedtree.str_items

let make_iterator st =
  let expr sub (e : Typedtree.expression) =
    let before = push_allows st e.Typedtree.exp_attributes in
    (match e.Typedtree.exp_desc with
     | Typedtree.Texp_ident (path, lid, _) ->
       let loc = lid.Location.loc in
       check_ident st ~loc path;
       check_plain_int st ~loc path;
       check_poly_compare st ~loc path e.Typedtree.exp_type
     | Typedtree.Texp_constant (Asttypes.Const_float lit) ->
       emit st Rules.Exact_arith ~loc:e.Typedtree.exp_loc
         (Printf.sprintf "float literal %s in an exact decide path: use Rat/Bignum" lit)
     | _ -> ());
    st.expr_depth <- st.expr_depth + 1;
    Tast_iterator.default_iterator.Tast_iterator.expr sub e;
    st.expr_depth <- st.expr_depth - 1;
    pop_allows st before
  in
  let module_expr sub (m : Typedtree.module_expr) =
    (match m.Typedtree.mod_desc with
     | Typedtree.Tmod_ident (path, lid) -> check_plain_int st ~loc:lid.Location.loc path
     | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.module_expr sub m
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let before = push_allows st vb.Typedtree.vb_attributes in
    check_value_binding st vb;
    Tast_iterator.default_iterator.Tast_iterator.value_binding sub vb;
    pop_allows st before
  in
  let structure sub (str : Typedtree.structure) =
    let before = st.allows in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        (match item.Typedtree.str_desc with
         | Typedtree.Tstr_attribute attr -> (
           match parse_allow attr with
           | Not_relevant -> ()
           | Malformed { loc; reason } -> meta_error st ~loc reason
           | Allow { rule; justification = _; loc } ->
             st.allows <- { f_rule = rule; f_loc = loc; f_used = false } :: st.allows)
         | _ -> ());
        Tast_iterator.default_iterator.Tast_iterator.structure_item sub item)
      str.Typedtree.str_items;
    pop_allows st before
  in
  { Tast_iterator.default_iterator with Tast_iterator.expr; module_expr; value_binding; structure }

let run_cmt ~rules path =
  match Cmt_format.read_cmt path with
  | exception Sys_error msg -> Error msg
  | exception Cmi_format.Error _ -> Error (path ^ ": not a valid cmt file")
  | exception Cmt_format.Error _ -> Error (path ^ ": not a valid cmt file")
  | exception Failure msg -> Error (path ^ ": " ^ msg)
  | exception End_of_file -> Error (path ^ ": truncated cmt file")
  | info -> (
    let modname = info.Cmt_format.cmt_modname in
    let file = match info.Cmt_format.cmt_sourcefile with Some f -> f | None -> path in
    match info.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let st =
        {
          enabled = rules;
          file;
          mod_components = components modname;
          tags = collect_tags str;
          allows = [];
          expr_depth = 0;
          acc = [];
        }
      in
      let iter = make_iterator st in
      iter.Tast_iterator.structure iter str;
      Ok { file; modname; findings = List.sort_uniq Finding.compare st.acc }
    | _ -> Ok { file; modname; findings = [] })
