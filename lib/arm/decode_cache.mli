(** A direct-mapped cache of decoded instructions, keyed by the 32-bit
    instruction word.

    Decoding is a pure function of the word, so a hit is always right:
    the cache needs no invalidation, and an instruction rewritten in
    place (self-modifying code) simply looks up its new word. Each
    machine owns one; snapshot restore leaves it alone. A hit allocates
    nothing, which is what keeps the interpreter's step allocation-free. *)

type t

val create : bits:int -> t
(** A cache of [2^bits] slots. Collisions are a birthday problem: the
    reference machine's 512 hot words of hmmer thrash about 11% of its
    steps at 12 bits and about 1% at 14. *)

val decode : t -> Repro_common.Word32.t -> (Insn.t, string) result
(** {!Encode.decode}, memoized: the result of a hit is the very value
    the miss stored. *)

val slot : t -> Repro_common.Word32.t -> int
(** The slot a word maps to. Two words with the same slot evict each
    other. *)
