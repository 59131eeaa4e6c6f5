(** An indexed collection of translation rules with longest-match
    lookup, keyed by the shape of a pattern's first instruction. *)

module A := Repro_arm.Insn

type t

val of_list : Rule.t list -> t
(** Index the rules; {!rules} returns them in the order given. *)

val size : t -> int
val rules : t -> Rule.t list

val find : t -> int -> Rule.t option
(** The first rule given with this id, from a table built once by
    {!of_list}. *)

val match_at : t -> A.t list -> (Rule.t * Rule.binding) option
(** Find the rule whose guest pattern matches the longest prefix of
    the (condition-stripped) instruction list; ties break toward the
    earliest-added rule. Quarantined rules never match. The caller is
    responsible for condition handling and for checking the
    instructions share a condition when a multi-instruction rule
    matches. *)

(** {2 Quarantine}

    Runtime defense against wrong rules: shadow verification (see
    {!Repro_dbt.Translator_rule}) strikes every rule involved in a
    divergent translation; at [threshold] strikes the rule is
    permanently excluded from matching. *)

module Ids : Set.S with type elt = int
module Counts : Map.S with type key = int

type health = { strikes : int Counts.t; quarantined : Ids.t }
(** Per-rule divergence strikes and the quarantined rule ids. A value:
    every change replaces the ruleset's health, so one a snapshot
    holds stays as captured. The rules themselves are not part of it:
    rule files and depot rules sections carry them as {!Serialize}
    codec bytes. *)

val health : t -> health

val set_health : t -> health -> unit
(** Install a health (snapshot restore, depot install, and the
    rollback path of the livelock watchdog): matching skips exactly
    its quarantined rules from now on. *)

val strike : t -> Rule.t -> threshold:int -> bool
(** Record one divergence strike; [true] iff this strike newly
    quarantined the rule. No-op on already-quarantined rules. *)

val is_quarantined : t -> Rule.t -> bool
val quarantined_count : t -> int

val quarantined_ids : t -> int list
(** Sorted quarantined rule ids. *)

val quarantine_by_id : t -> int -> bool
(** Quarantine a rule by id without a strike history — the fleet-wide
    demotion broadcast (the strikes happened on another machine).
    [true] iff the id names a known, not-yet-quarantined rule. The
    caller must flush any code cache holding translations made under
    the old quarantine set. *)

val coverage : t -> A.t list -> int
(** Static count of instructions in the list matched by some rule
    (diagnostics for the coverage experiments). *)
