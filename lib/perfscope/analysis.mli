(** Offline analysis over the toolchain's JSON artifacts: phase
    breakdowns and A/B diffs of [--stats-json] files, and the
    benchmark-regression gate over consolidated [BENCH_<rev>.json]
    files. The [repro-dbt-analyze] CLI is a thin printer over these
    functions; the tests drive them directly. *)

module Jsonx := Repro_observe.Jsonx

val phase_totals : Jsonx.value -> (string * int) list
(** Per-phase host-instruction totals of one stats-json value: the
    ["perf"]["phases"] section when the run carried a scope, else the
    per-tag ["host_*"] split from the bare stats. *)

val stat_int : Jsonx.value -> string -> int option
(** An integer field of the ["stats"] section. *)

val check_kind : ?require:bool -> expect:string -> Jsonx.value -> (unit, string) result
(** Validate the ["meta"] document-kind tag of a parsed artifact
    against the kind a consumer expects: [Ok ()] when the tag equals
    [expect], or when it is absent and [require] is false (legacy
    artifacts predate the tagging; default). [Error reason] carries a
    one-line diagnosis naming both kinds. *)

type diff_row = {
  d_phase : string;
  d_a : int;
  d_b : int;
  d_pct : float;  (** (b - a) / a * 100; exactly 0 when [a = b] *)
}

val diff : Jsonx.value -> Jsonx.value -> diff_row list
(** Per-phase A/B comparison of two stats-json values. Two same-seed
    same-config runs produce all-zero deltas. *)

val max_abs_pct : diff_row list -> float

(** {2 The regression gate} *)

type slice = {
  sl_name : string;
  sl_figure : string;
  sl_mode : string;
  sl_bench : string;
  sl_rule_enabled : bool;
  sl_guest : int;
  sl_host : int;
  sl_host_per_guest : float;
  sl_sync : int;
}

type bench_file = { bf_rev : string; bf_target : int; bf_slices : slice list }

val bench_of_json : Jsonx.value -> bench_file option
(** Decode a consolidated BENCH file; [None] if any slice is
    malformed. *)

type gate_status =
  | Gate_ok
  | Gate_regressed of float
  | Gate_missing
  | Gate_empty

type gate_row = {
  g_name : string;
  g_base : float;
  g_cur : float;
  g_pct : float;
  g_status : gate_status;
}

val gate :
  ?threshold_pct:float -> baseline:bench_file -> current:bench_file -> unit ->
  bool * gate_row list
(** Compare a current BENCH file against the committed baseline: every
    rule-enabled baseline slice must be present, retire a nonzero
    guest-instruction count, and not regress host-insn/guest-insn by
    more than [threshold_pct] (default 5%). Returns (all-ok, rows). *)

(** {2 File loading} *)

val read_file : string -> string
val load_json : string -> Jsonx.value
val load_jsonl : string -> Jsonx.value list
(** One value per non-empty line. *)
