(** The byte form of translated code, shared by snapshots and depots,
    written with {!Snapshot.Enc} and read with {!Snapshot.Dec}.
    {!enc_tb} writes a block's host program, exits, guest code, fault
    producers, injected corruption and provenance; the owning cache
    writes the rest with the same codec. Every decoding failure is
    {!Snapshot.Corrupt}. *)

val enc_tb : Snapshot.Enc.t -> Repro_tcg.Tb.t -> unit

val dec_tb : Snapshot.Dec.t -> Repro_tcg.Tb.t
(** The block {!enc_tb} wrote, with no links, [hot] 0, no region
    constituents and [No_meta] (the translator codes its meta).
    Refuses an unknown constructor or enumeration value, a register
    outside 0..15, an exit through a missing slot and an undecodable
    guest word. *)
