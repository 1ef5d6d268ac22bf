(** 1-D partially runtime-reconfigurable FPGA model.

    The device is a row of [area] columns (Section 2).  Placements occupy a
    contiguous set of columns.  The paper's main analysis assumes
    unrestricted migration — a job fits iff its width is at most the total
    free area, because active jobs can be rearranged at zero cost — but
    this module also implements real contiguous allocation (first/best/
    worst-fit) so the simulator can quantify what restricted migration
    costs (a future-work item of Section 7). *)

type region = { start : int; width : int }
(** Columns [\[start, start + width)]. *)

type 'a t
(** A device whose placements are tagged with values of type ['a]. *)

val create : area:int -> 'a t
(** @raise Invalid_argument when [area < 1]. *)

type strategy = First_fit | Best_fit | Worst_fit

val place : ?strategy:strategy -> 'a t -> tag:'a -> width:int -> region option
(** Allocate [width] contiguous columns, or [None] when no free block is
    wide enough.  Default strategy is [First_fit].
    @raise Invalid_argument when [width < 1] or [width > area]. *)

val place_at : 'a t -> tag:'a -> region -> unit
(** Forced placement at a specific region (a job keeping its columns
    across a scheduling point).
    @raise Invalid_argument when the region overlaps an existing placement
    or exceeds the device. *)

val clear : _ t -> unit
(** Remove every placement. *)
