(** Guest physical RAM: one machine's bytes, kept as 4 KiB pages that
    exist only once written.

    Every page starts as one shared zero page that is never written;
    the first write to a page gives it its own bytes, so a machine
    costs memory only for the pages its guest (or its image load)
    wrote. A page once owned stays owned. Next to the pages the RAM
    keeps what checkpoints need: a dirty bitmap (one byte per page) of
    the pages written since the last {!capture} or {!restore}, and
    [sync], the page strings of the checkpoint RAM last matched. The
    invariant is that a page the bitmap does not mark holds exactly
    its [sync] string. Nothing modelled is charged here.

    Accesses take a physical address that the caller has already
    checked against {!size} (the bus does, and the softMMU maps only
    RAM pages): the page index is the only range check an access
    makes, and an address past the last page raises
    [Invalid_argument]. Words and halfwords are little-endian and may
    straddle a page boundary; a write marks the page of each byte it
    stores. *)

type t

val create : int -> t
(** [create n]: [n] bytes of zero RAM owning no page, [sync] the zero
    pages ({!Pages.zero}). *)

val size : t -> int

val get8 : t -> int -> int
val get16 : t -> int -> int
val get32 : t -> int -> int
val set8 : t -> int -> int -> unit
val set16 : t -> int -> int -> unit
val set32 : t -> int -> int -> unit
(** [set*] store the low 8, 16 or 32 bits of the value. *)

val to_string : t -> string
(** A copy of all [size] bytes. *)

val owned : t -> int
(** Pages that have their own bytes. *)

val is_dirty : t -> int -> bool
(** Page [i] was written since the last {!capture} or {!restore}. *)

val sync : t -> Pages.t

val capture : t -> Pages.t
(** The RAM as page strings: the marked pages copied, every other one
    shared with [sync] (and [sync] itself when no page is marked), so
    what a capture allocates grows with the pages marked, not with the
    RAM ({!Pages.update}). The result becomes [sync] and the bitmap is
    cleared. *)

val restore : t -> Pages.t -> unit
(** Write any page array of the same total length back: an older
    capture, or another machine's, or one cut from a file. A page is
    rewritten only when it is marked or its [sync] string is not
    physically the new one; an unowned page stays unowned when the new
    one is all zeros. The array becomes [sync] and the bitmap is
    cleared. Raises [Invalid_argument] on a length mismatch. *)
