(** Guest RAM seen as 4 KiB pages, for checkpoints that copy only what
    changed.

    RAM writers mark the page they wrote in a dirty bitmap (one byte
    per page); a checkpoint holds RAM as an array of immutable page
    strings and shares every clean page with the checkpoint before it.
    Marking costs real time only: nothing modelled is charged. *)

val bits : int
(** [12]: a page is [1 lsl bits] bytes. *)

val size : int
(** 4096. *)

val bitmap : int -> Bytes.t
(** A clean dirty-page bitmap for [n] bytes of RAM, one byte per page;
    the last page may be partial. *)

val mark : Bytes.t -> int -> unit
(** [mark dirty addr] marks the page holding byte [addr]. *)

val is_dirty : Bytes.t -> int -> bool
(** Page [i] was written since the bitmap was last cleared. *)

val clear : Bytes.t -> unit

val zero : int -> string array
(** The pages of [n] zero bytes. Every full page is one shared string,
    so a fresh machine's first checkpoint copies only what was
    written. *)

val split : string -> string array
(** A RAM image cut into pages. *)

val length : string array -> int
(** Bytes of RAM the pages hold. *)
