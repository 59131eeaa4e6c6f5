(** 32-bit machine words represented as non-negative OCaml [int]s.

    Every function keeps its result inside [0, 2^32). Signed views are
    provided where two's-complement interpretation matters (comparisons,
    arithmetic shift right, overflow flags). This module is the single
    source of truth for word arithmetic across the guest (ARM) and host
    (x86) models, the softMMU and the symbolic evaluator. *)

type t = int
(** A 32-bit word, invariant: [0 <= w < 0x1_0000_0000]. *)

val mask : t -> t
(** Truncate an arbitrary [int] to 32 bits. *)

val max_value : t
(** [0xFFFF_FFFF]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** [shift_left w n] for [n >= 32] returns [0]. *)

val shift_right_logical : t -> int -> t
(** Logical shift; [n >= 32] returns [0]. *)

val shift_right_arith : t -> int -> t
(** Arithmetic shift on the two's-complement view; [n >= 32] replicates
    the sign bit. *)

val rotate_right : t -> int -> t
(** Rotate by [n mod 32]. *)

val bit : t -> int -> bool
(** [bit w i] is bit [i] (0 = least significant). *)

val set_bit : t -> int -> bool -> t

val extract : t -> lo:int -> len:int -> t
(** [extract w ~lo ~len] is the [len]-bit field starting at bit [lo]. *)

val insert : t -> lo:int -> len:int -> t -> t
(** [insert w ~lo ~len v] overwrites the field with the low [len] bits
    of [v]. *)

val signed : t -> int
(** Two's-complement value in [-2^31, 2^31). *)

val of_signed : int -> t
(** Inverse of {!signed} for values that fit; other values are masked. *)

val is_negative : t -> bool
(** Bit 31. *)

val compare_signed : t -> t -> int
val compare_unsigned : t -> t -> int

val carry_of_add : t -> t -> carry_in:bool -> bool
(** Unsigned carry out of a 32-bit addition. *)

val overflow_of_add : t -> t -> t -> bool
(** [overflow_of_add a b r] is signed overflow of [r = a + b (+ carry)]. *)

val borrow_of_sub : t -> t -> borrow_in:bool -> bool
(** True when [a - b - borrow] underflows below zero (x86 CF convention;
    ARM's C flag for subtraction is the negation). *)

val overflow_of_sub : t -> t -> t -> bool
(** [overflow_of_sub a b r] is signed overflow of [r = a - b (- borrow)]. *)

val sign_extend : width:int -> t -> t
(** Sign-extend the low [width] bits to a full word. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal [0x%08x] rendering. *)

val to_hex : t -> string
