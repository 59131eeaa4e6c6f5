(** Rule sets as bytes.

    A learned set is produced once ([repro-rulegen -o rules.bin]) and
    loaded by the translator CLI without re-running the pipeline —
    mirroring how the paper consumes a rule set learned by earlier
    work — and every rules-mode depot carries the set its code was
    translated under. Both are these bytes: the header ["DBTRULE\x01"],
    then the rules in order in the {!Repro_common.Codec} varint codec,
    every field of {!Rule.t} in one walk each way. [repro-rulegen]
    prints the rules for reading. *)

val save : Ruleset.t -> string

val digest : Ruleset.t -> int
(** FNV-1a-32 of {!save}'s bytes: equal for rule sets that save alike. *)

val load : string -> (Ruleset.t, string) result
(** The rule set {!save} wrote. Total: any other bytes are an [Error]
    naming the first fault, and nothing raises. Bytes without the
    header (such as the s-expression text of earlier versions) are
    not a rule set in this format. A rule is refused when a register
    or immediate parameter index (in the guest pattern, the host
    template or [require_distinct]) is not below its declared count,
    a count exceeds 16, the guest pattern holds a shifted immediate
    ([P_imm_shl]), a scratch register is past {!Pinmap.scratch}, or a
    template writes or addresses through an immediate; the set is
    refused when two rules share an id or bytes follow the last rule. *)

val save_file : Ruleset.t -> string -> unit
(** Crash-atomic ({!Repro_common.Atomicio.write}). *)

val load_file : string -> (Ruleset.t, string) result
(** {!load} of the file's bytes; a file that cannot be read is an
    [Error] too. *)
