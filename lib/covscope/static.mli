(** Translation-time per-rule emission tally.

    Records, per rule id, how many TB sites the rule translated and
    how many host instructions those sites emitted. The rule
    translator keeps one; code installed from a snapshot or a depot is
    not emitted, so it counts nothing. Not a snapshot
    section — it describes this process's translation work, not guest
    state. *)

type t

val create : unit -> t

val record : t -> rule:int -> host_insns:int -> unit
(** One translated site for [rule] that emitted [host_insns]
    countable host instructions. *)

val entries : t -> (int * int * int) list
(** All [(rule_id, sites, emitted_host_insns)] rows, sorted by id. *)

val find : t -> int -> int * int
(** [(sites, emitted)] for one rule id; [(0, 0)] if never seen. *)
