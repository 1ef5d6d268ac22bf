(** The [redf check-src] policy: the four rule families, the module
    scopes each one covers, and the deny/safe lists the analysis
    matches against.

    Scope is a function of the workspace-relative source path recorded
    in the cmt (e.g. [lib/core/dp.ml]) extended by in-source module
    tags: a floating [[\@\@\@redf.det]], [[\@\@\@redf.domain_shared]] or
    [[\@\@\@redf.exact]] opts the module into the corresponding rule
    regardless of its path (fixture modules use this). *)

type rule = Det_purity | Domain_safety | Exact_arith | Poly_compare

val all : rule list
val name : rule -> string
val of_name : string -> rule option
(** Case-insensitive kebab-case lookup, e.g. ["det-purity"]. *)

val tag_of_attribute : string -> rule option
(** [tag_of_attribute "redf.det"] is [Some Det_purity], etc. *)

val in_scope : rule -> file:string -> tags:rule list -> bool
(** Does [rule] apply to the module compiled from [file]?  [tags] are
    the module's in-source tags. *)

val plain_int_module : string
(** ["Core.Ticks.Native"]: the plain-int instance whose operations
    wrap silently. *)

val plain_int_scope : file:string -> tags:rule list -> bool
(** Where naming {!plain_int_module} is an [exact-arith] error: every
    module of [lib/] and every module tagged [[\@\@\@redf.exact]],
    except the three generated ranged instances
    ([lib/core/{dp,gn1,gn2}_ranged.ml]). *)

val det_denied_idents : (string * string) list
(** Normalized full identifier path, and why it is nondeterministic. *)

val exact_denied_idents : (string * string) list

val ordered_types : (string * string) list
(** Fully-qualified normalized type-constructor paths carrying a custom
    ordering, and the monomorphic alternative to suggest. *)

val poly_compare_idents : string list
(** The polymorphic comparison functions whose instantiations are
    inspected (for {!Poly_compare} and the float case of
    {!Exact_arith}). *)

val mutable_type_heads : string list
val safe_type_heads : string list
