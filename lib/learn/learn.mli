(** The end-to-end learning pipeline (paper §II-A): compile the corpus
    with both compilers, extract per-line fragment pairs, verify them
    symbolically, parameterize the survivors, lump same-shape ALU
    rules into opcode classes, and deduplicate into a rule set. *)

type report = {
  programs : int;
  candidates : int;
  verified : int;
  rules : Repro_rules.Rule.t list;  (** final, lumped and deduplicated *)
  rejected : (Extract.candidate * string) list;
}

val learn : ?corpus:Repro_minic.Ast.program list -> unit -> report
(** Defaults to {!Corpus.programs}. Deterministic. *)

val ruleset : report -> Repro_rules.Ruleset.t
(** The learned rules alone. *)

val full_ruleset : report -> Repro_rules.Ruleset.t
(** The set the translator runs by default: the hand-checked builtin
    rules, then the learned ones. *)

val pp_report : Format.formatter -> report -> unit
