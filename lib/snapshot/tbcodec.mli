(** The byte form of translated code, shared by snapshots and depots: a
    stream of varints (7 bits a byte). {!enc_tb} writes a block's host
    program, exits, guest code, fault producers, injected corruption and
    provenance; the owning cache writes the rest with the same
    primitives. Counts are bounded by the bytes left before anything is
    allocated; every decoding failure is {!Snapshot.Corrupt}. *)

val put : Buffer.t -> int -> unit
(** A non-negative number; [put_int] takes any, zigzag-signed. *)

val put_int : Buffer.t -> int -> unit

val put_bool : Buffer.t -> bool -> unit
val put_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit

val enc_enum : 'a list -> Buffer.t -> 'a -> unit
(** A value of a finite enumeration, as its position in the list. *)

val enc_tb : Buffer.t -> Repro_tcg.Tb.t -> unit

type reader

val reader : string -> reader
val finished : reader -> bool
val get : reader -> int
val get_int : reader -> int
val get_bool : reader -> bool

val get_array : reader -> (reader -> 'a) -> 'a array
(** A count, then that many elements of at least a byte each: a count
    larger than the bytes left is refused up front. *)

val dec_enum : 'a list -> reader -> 'a

val dec_tb : reader -> Repro_tcg.Tb.t
(** The block {!enc_tb} wrote, with no links, [hot] 0 and no region
    constituents. Refuses an unknown constructor or enumeration value,
    a register outside 0..15, an exit through a missing slot and an
    undecodable guest word. *)
