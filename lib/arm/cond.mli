(** ARM condition codes and their evaluation over the NZCV flags. *)

type t =
  | EQ  (** Z set *)
  | NE  (** Z clear *)
  | CS  (** C set (unsigned >=) *)
  | CC  (** C clear (unsigned <) *)
  | MI  (** N set *)
  | PL  (** N clear *)
  | VS  (** V set *)
  | VC  (** V clear *)
  | HI  (** C set and Z clear (unsigned >) *)
  | LS  (** C clear or Z set (unsigned <=) *)
  | GE  (** N = V *)
  | LT  (** N <> V *)
  | GT  (** Z clear and N = V *)
  | LE  (** Z set or N <> V *)
  | AL  (** always *)

type flags = { n : bool; z : bool; c : bool; v : bool }
(** The NZCV condition-code register contents. *)

val holds : t -> flags -> bool
(** Whether the condition passes under the given flags. *)

val holds_word : t -> Repro_common.Word32.t -> bool
(** {!holds} over the NZCV bits (31..28) of a CPSR word, without
    unpacking them into a {!flags} record. *)

val negate : t -> t
(** Logical negation; [negate AL] is [AL] (callers must not negate an
    unconditional instruction — asserted). *)

val to_int : t -> int
(** The 4-bit encoding (AL = 14). *)

val of_int : int -> t option
(** Inverse of {!to_int}; [None] for 15 (the unconditional space). *)

val to_string : t -> string
(** Lower-case suffix; [""] for AL. *)

val all : t list
(** Every condition, in encoding order. *)

val flags_to_word : flags -> Repro_common.Word32.t
(** Pack as NZCV in bits 31..28 (CPSR layout). *)

val flags_of_word : Repro_common.Word32.t -> flags
val pp_flags : Format.formatter -> flags -> unit
val equal_flags : flags -> flags -> bool
