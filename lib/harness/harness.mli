(** The experiment harness: one entry point per table/figure of the
    paper's evaluation (see DESIGN.md §4 for the experiment index).

    A session memoizes full-system runs — each benchmark × engine
    configuration boots the mini kernel, runs the calibrated workload
    to completion and collects the dynamic counters every figure is
    derived from. Absolute numbers are not expected to match the
    paper's testbed; the shapes (who wins, by how much, where the
    bottleneck is) are the reproduction target (EXPERIMENTS.md). *)

type t

val create :
  ?ruleset:Repro_rules.Ruleset.t ->
  ?target_insns:int ->
  ?timer_period:int ->
  unit ->
  t
(** [ruleset] defaults to the learned set ({!Repro_learn.Learn});
    [target_insns] (default 200_000) sizes each workload;
    [timer_period] (default 5_000 guest instructions) drives the
    interrupt load. *)

type run = {
  bench : string;
  mode : string;
  guest : int;
  host : int;
  sync_insns : int;
  sync_ops : int;
  mmu_accesses : int;
  irq_polls : int;
  irqs_delivered : int;
  sys_helper_calls : int;
  exit_code : Repro_common.Word32.t;
  shadow_replays : int;
  shadow_divergences : int;
  rules_quarantined : int;
  quarantine_fallbacks : int;
  faults_injected : int;
      (** faults actually fired by the injector across the whole run
          (0 when no injector was armed) *)
}

exception Did_not_halt of string
(** A benchmark exhausted its instruction budget without reaching the
    power-off register — the typed replacement for a harness abort. *)

val host_per_guest : run -> float
val sync_per_guest : run -> float

val run_spec :
  ?inject:Repro_faultinject.Faultinject.t ->
  ?shadow_depth:int ->
  ?quarantine_threshold:int ->
  t ->
  Repro_workloads.Workloads.spec ->
  Repro_dbt.System.mode ->
  run
(** Run one benchmark spec. [inject]/[shadow_depth]/
    [quarantine_threshold] are forwarded to
    {!Repro_dbt.System.create} (and folded into the memo key). *)

val run_app : t -> Repro_workloads.Workloads.app -> Repro_dbt.System.mode -> run

(** {2 Experiments} *)

type table = { title : string; header : string list; rows : string list list }

val render : table -> string

val table1 : t -> table
(** Measured per-benchmark coordination-trigger frequencies (paper
    Table I). *)

val fig8 : t -> table
(** Host instructions per coordination operation, unoptimized vs
    III-B reduction (paper Fig. 8: 14 → 3). *)

val fig14 : t -> table
(** Per-benchmark speedup over QEMU: unoptimized rules and full
    optimization (paper Fig. 14). *)

val fig15 : t -> table
(** Host instructions per guest instruction, QEMU vs optimized rules
    (paper Fig. 15: 17.39 vs 15.40). *)

val fig16 : t -> table
(** Cumulative speedup per optimization level (paper Fig. 16:
    0.95 → 1.22 → 1.30 → 1.36). *)

val fig17 : t -> table
(** Coordination host instructions per guest instruction per level
    (paper Fig. 17: 8.36 → 1.79 → 1.33 → 0.89). *)

val fig18 : t -> table
(** Slowdown relative to native execution (paper Fig. 18: 18.73x vs
    13.83x). *)

val fig19 : t -> table
(** Real-world application speedups (paper Fig. 19: ≈1.15x geomean). *)

val coverage : t -> table
(** Extension: dynamic rule coverage and fallback counts per
    benchmark (full opt). *)

val ablation_chaining : t -> table
(** Extension: full-opt speedup with block chaining disabled. *)

val ablation_timer : t -> table
(** Extension: coordination cost across interrupt loads (the lazy
    one-to-many parse argument of paper Fig. 7). *)

val ablation_ruleset : t -> table
(** Extension: speedup as the rule set is truncated. *)

val breakdown : t -> table
(** Extension (paper §IV-B): executed host instructions grouped by
    functionality (compute / sync / mmu / irq-check / glue) per guest
    instruction — the analysis behind the paper's "address translation
    is the bottleneck" conclusion. *)

val ablation_inline_mmu : t -> table
(** Extension: the paper's future work — an inline TLB fast path for
    the rule-based engine, removing the per-access context switch. *)

val ablation_cost_model : t -> table
(** Extension: the headline comparisons re-run with the modelled
    engine/helper-side costs scaled to 50% and 200% of nominal
    ({!Repro_tcg.Costs.set_scale_pct}) — evidence that the shape
    claims do not hinge on the calibration constants. *)

val ablations : t -> table list

val all : t -> table list
(** Every experiment (paper order), then the ablations. *)
