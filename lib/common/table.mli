(** Plain-text aligned tables, used by the experiment harness to print
    the rows of each paper table/figure. *)

type align = Left | Right

val render : header:string list -> ?aligns:align list -> string list list -> string
(** [render ~header rows] lays the rows out in aligned columns with a
    separator rule under the header. [aligns] defaults to left for the
    first column and right for the rest. *)

val fixed : int -> float -> string
(** [fixed d x] formats [x] with [d] decimals. *)

val percent : float -> string
(** [percent 0.1234] is ["12.34%"]. *)

val geomean : float list -> float
(** Geometric mean; raises [Invalid_argument] on an empty list or
    non-positive entries. *)
