(** Textual persistence of rule sets.

    Rules serialize to a small s-expression dialect, so a learned set
    can be produced once ([repro-rulegen -o rules.sexp]) and loaded by
    the translator CLI without re-running the pipeline — mirroring how
    the paper consumes a rule set learned by earlier work. The format
    round-trips every field of {!Rule.t}. *)

val rule_to_string : Rule.t -> string
val rule_of_string : string -> (Rule.t, string) result

val save : Ruleset.t -> string
(** One rule per s-expression, newline separated, with a header
    comment line. *)

val digest : Ruleset.t -> int
(** A 32-bit FNV-1a digest of the rules, equal for any two rulesets
    that {!save} to the same text, computed without building it. *)

val load : string -> (Ruleset.t, string) result
(** Parse the output of {!save}; fails on the first malformed rule. *)

val save_file : Ruleset.t -> string -> unit
val load_file : string -> (Ruleset.t, string) result
