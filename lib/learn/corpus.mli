(** The training corpus: mini-C programs whose twin compilations feed
    the rule learner. Coverage-oriented — arithmetic/logical/shift
    combinations, multiplies, negation, every comparison operator,
    large constants, aliased destinations — mirroring the paper's use
    of many small training sources. *)

val programs : Repro_minic.Ast.program list
