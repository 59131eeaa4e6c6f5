(** Packed per-retirement attribution words.

    Every retired guest instruction is charged, at its single
    retirement point (the [Cnt_guest_insn] pseudo-op), to exactly one
    translation tier plus the instruction's opcode class, within-class
    idiom, and — for rule-translated code — the rule id. The whole
    tuple is packed into one immediate so the execution engine stays
    oblivious: [Stats.retire] indexes by the opaque word, and only the
    coverage reports decode it.

    Word layout: bits 0-2 tier, 3-9 class ({!Repro_arm.Insn.cls_index}),
    10-13 idiom, 14+ rule id + 1 (0 = no rule). *)

type tier =
  | Region    (** rule-translated code running inside a fused hot region *)
  | Rule      (** native code from a learned/builtin rule TB *)
  | Baseline  (** baseline TCG frontend/backend translation *)
  | Interp    (** the decode-dispatch interpreter rung *)
  | Helper    (** retired natively but served by a helper call *)

val n_tiers : int
val tier_index : tier -> int
val tier_of_index : int -> tier
val all_tiers : tier list
val tier_name : tier -> string

val covered : tier -> bool
(** The paper's "rule coverage" numerator: {!Region} and {!Rule}. *)

val pack : tier:tier -> ?rule:int -> Repro_arm.Insn.t -> int
(** Attribution word for a decoded guest instruction (class and idiom
    are derived from the instruction itself). *)

val pack_raw : tier:tier -> cls:int -> idiom:int -> rule:int option -> int

val pack_undecodable : tier:tier -> int
(** Attribution for a fetch the decoder rejected (charged to the
    undefined-instruction class). *)

val tier : int -> tier
val cls : int -> int
val idiom : int -> int
val rule : int -> int option

val retier : int -> tier -> int
(** Same word re-attributed to another tier (the fallback-path
    repatch). *)
