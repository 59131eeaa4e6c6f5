(** Guest RAM seen as 4 KiB pages, for checkpoints that copy only what
    changed.

    A checkpoint holds RAM as an immutable vector of page strings and
    shares every page that did not change with the checkpoint before
    it; {!Ram} keeps the live pages and knows which ones were written.
    The vector is two levels deep, leaves of {!fan} pages under one
    top array, so a vector that differs from another in k pages costs
    those k strings, one leaf per leaf they fall in and one top array,
    and shares everything else. *)

val bits : int
(** [12]: a page is [1 lsl bits] bytes. *)

val size : int
(** 4096. *)

val fan : int
(** Pages per leaf (32). *)

val count : int -> int
(** Pages in [n] bytes of RAM; the last one may be partial. *)

val page_len : int -> int -> int
(** [page_len n i]: bytes of page [i] in [n] bytes of RAM. *)

type t
(** An immutable vector of page strings. Never mutate a page it
    returns. *)

val zero : int -> t
(** The pages of [n] zero bytes. Every full page is one shared string,
    so a fresh machine's first checkpoint copies only what was
    written. *)

val split : ?pos:int -> ?len:int -> string -> t
(** A RAM image cut into pages: bytes [pos] (default 0) to the end of
    the string, or [len] of them. *)

val length : t -> int
(** Bytes of RAM the pages hold. *)

val get : t -> int -> string
(** Page [i]. *)

val iteri : (int -> string -> unit) -> t -> unit
val fold : ('a -> string -> 'a) -> 'a -> t -> 'a
(** In page order. *)

val to_string : t -> string
(** The pages concatenated. *)

val update : t -> marked:(int -> bool) -> (int -> string) -> t
(** [update v ~marked page]: [v] with page [i] replaced by [page i]
    wherever [marked i]. Every leaf with no marked page, and [v]
    itself when no page is marked, is shared. *)

val iter_changed : old:t -> marked:(int -> bool) -> t -> (int -> string -> unit) -> unit
(** [iter_changed ~old ~marked v f] calls [f i (get v i)] for each page
    [i] that is marked or whose string in [v] is not physically the one
    in [old], in page order; a leaf [v] shares with [old] is skipped
    unless one of its pages is marked. [old] and [v] hold the same
    number of bytes. *)
