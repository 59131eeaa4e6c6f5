(** Deterministic pseudo-random generator (splitmix64 core).

    Workload generation and randomized equivalence testing must be
    reproducible across runs and machines, so nothing in the repository
    uses [Random]; everything draws from a seeded {!t}. *)

type t

val create : seed:int -> t

val of_string : string -> t
(** Seed derived from a string (e.g. a benchmark name), stable across
    runs. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val word : t -> Word32.t
(** Uniform 32-bit word. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [0,1]). *)

val state : t -> int64
(** The full generator state (the splitmix64 cursor). Saving the state
    and later {!set_state}-ing it resumes the exact same stream —
    machine snapshots depend on this to keep restored runs
    bit-identical to uninterrupted ones. *)

val set_state : t -> int64 -> unit
