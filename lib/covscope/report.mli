(** The translation-quality observatory's reports.

    Consumes the always-on attribution table kept by
    {!Repro_x86.Stats} (one row per packed {!Attr} word: retirements
    and attributed host-insn cost) and derives the three instruments
    of this layer: the tier × opcode-class coverage matrix, the
    per-rule utilization/payoff ledger, and the ranked rule-learning
    opportunity queue. Everything here is read-only over the stats —
    generating a report never perturbs execution. *)

(** {2 Sources} *)

type source = {
  entries : (int * int * int) list;
      (** [(attr, retirements, host_cost)] rows, sorted by word *)
  guest_insns : int;
  host_insns : int;
  residual : int;  (** host insns accrued since the last retirement *)
}

val of_stats : Repro_x86.Stats.t -> source
val merge : source list -> source
(** Pointwise sum — the fleet-level merge used by telemetry. *)

val partition_error : source -> string option
(** [None] iff the tier partition invariant holds: per-attribution
    retirement counts sum exactly to [guest_insns]. *)

val check_partition : source -> unit
(** Raises [Failure] with a one-line reason if the partition is broken. *)

(** {2 Reports} *)

type cell = { n : int; cost : int }

type rule_row = {
  rule_id : int;
  rule_name : string;
  hits : int;  (** dynamic retirements attributed to this rule *)
  dyn_cost : int;
  sites : int;  (** static translation sites (when a tally was given) *)
  emitted : int;  (** host insns those sites emitted *)
  counterfactual : float;
      (** estimated baseline-TCG cost of the same retirements
          (measured per-class baseline mean, with fallbacks) *)
  payoff : float;  (** [counterfactual -. dyn_cost] *)
  dead : bool;  (** zero dynamic hits — quarantine candidate *)
  negative : bool;  (** hits but negative payoff — quarantine candidate *)
}

type opportunity = {
  o_cls : Repro_arm.Insn.cls;
  o_idiom : int;
  o_cell : cell;  (** uncovered dynamic footprint of the pair *)
  o_savings : float;  (** [count x max 0 (mean cost - covered mean)] *)
}

type t = {
  src : source;
  tiers : cell array;  (** by {!Attr.tier_index} *)
  matrix : cell array array;  (** class × tier *)
  rules : rule_row list;
  opportunities : opportunity list;  (** ranked, best first *)
}

val make : ?static:Static.t -> ?rules:(int * string) list -> source -> t
(** Build a report. [rules] lists every rule in the active ruleset
    (id, name) so dead rules surface; [static] supplies the
    translation-time sites/emitted columns. Asserts the partition
    invariant (raises [Failure] when broken). *)

val coverage : t -> float
(** Fraction of retired guest insns served by the rule or region tier
    — the paper's rule-coverage metric. *)

val to_json : t -> string
(** Complete report document, [meta = "dbt-coverage"]. Deterministic
    for a deterministic run; writer-specific fields live under
    [volatile]. *)

val pp : Format.formatter -> t -> unit
