(** Guest RAM seen as 4 KiB pages, for checkpoints that copy only what
    changed.

    A checkpoint holds RAM as an array of immutable page strings and
    shares every page that did not change with the checkpoint before
    it; {!Ram} keeps the live pages and knows which ones were written. *)

val bits : int
(** [12]: a page is [1 lsl bits] bytes. *)

val size : int
(** 4096. *)

val count : int -> int
(** Pages in [n] bytes of RAM; the last one may be partial. *)

val page_len : int -> int -> int
(** [page_len n i]: bytes of page [i] in [n] bytes of RAM. *)

val zero : int -> string array
(** The pages of [n] zero bytes. Every full page is one shared string,
    so a fresh machine's first checkpoint copies only what was
    written. *)

val split : ?pos:int -> ?len:int -> string -> string array
(** A RAM image cut into pages: bytes [pos] (default 0) to the end of
    the string, or [len] of them. *)

val length : string array -> int
(** Bytes of RAM the pages hold. *)
