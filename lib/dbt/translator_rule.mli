(** The rule-based system-level translator: fetch a guest block, apply
    define-before-use scheduling (III-D-1), emit through {!Emitter},
    and implement the inter-TB optimization (III-C-3) at block-chaining
    time by re-emitting the predecessor without its epilogue flag save
    and the successor with an interrupt stub that spills the inherited
    EFLAGS. Plug the four callbacks into {!Repro_tcg.Engine.run}.

    Robustness layer: shadow verification replays the first
    [shadow_depth] engine-dispatched executions of each rule-carrying
    TB on the reference interpreter and compares registers, NZCV and
    the byte-level memory effect. A divergence repairs guest state
    from the replay, blacklists the TB's address (subsequent
    translations fall back to the baseline translator) and strikes
    every rule used in the TB; rules reaching
    [quarantine_threshold] strikes are quarantined in the ruleset. *)

open Repro_common

type t

val create :
  opt:Opt.t ->
  ruleset:Repro_rules.Ruleset.t ->
  ?shadow_depth:int ->
  ?quarantine_threshold:int ->
  ?ledger:Repro_perfscope.Ledger.t ->
  unit ->
  t
(** A translator. [shadow_depth] (default 0 = disabled) is the number
    of verified executions per TB address; [quarantine_threshold]
    (default 2) the strikes that quarantine a rule. Every emission
    reports its statics: each first emission's rule-template sites
    into the translator's own tally ({!rule_sites}), and per-pass
    static coordination savings into [ledger] (re-emissions as
    deltas). The ledger's statics are a sink, not a fold over charge
    windows: {!link_hook} re-emits after the engine's [Linked] close,
    and {!form_region} re-emits predecessors even when no region
    forms. Engine-entry restores charge Sync in the [Entered] charge
    window, which the ledger's dynamic view folds as III-C.3's cost. *)

val translate :
  t -> Repro_tcg.Runtime.t -> Repro_tcg.Tb.Cache.t -> pc:Word32.t ->
  (Repro_tcg.Tb.t, Repro_arm.Mem.fault) result
(** Never raises on guest-controlled input: emitter resource
    overflows retry with shorter blocks and bottom out at the
    baseline's single-instruction interpreter TB; blacklisted
    addresses translate through {!Repro_tcg.Translator_qemu}. *)

val form_region :
  t -> Repro_tcg.Runtime.t -> Repro_tcg.Tb.Cache.t -> Repro_tcg.Tb.t ->
  Repro_tcg.Tb.t option
(** The engine's [on_hot] hook: walk the hot TB's hottest chain of
    direct successors (stopping at loop closure, a regime change, an
    unfusable block or the length cap), fuse the trace into one
    superblock via {!Emitter.emit}, install it over the head PC
    and unlink stale chained jumps into the head. [None] when no
    fusable trace of at least two chunks exists — the TB simply keeps
    running unfused. *)

val link_hook :
  t -> pred:Repro_tcg.Tb.t -> slot:int -> succ:Repro_tcg.Tb.t -> unit
(** The engine's chain hook: elide [pred]'s flag save on exit [slot]
    when [succ] defines the flags before reading them, re-emitting
    [pred], and [succ] with the entry assumption if it had none. A
    re-emission stores a new meta on its TB beside the new program. *)

val on_enter : t -> Repro_tcg.Runtime.t -> Repro_tcg.Tb.t -> unit
(** Engine-dispatch entry: if the TB assumes live flags in EFLAGS
    (inter-TB), install them from env (a Sync-restore performed by the
    engine, charged as such). Also arms shadow verification for this
    execution when the sampling policy selects it. *)

val on_executed :
  t ->
  Repro_tcg.Runtime.t ->
  Repro_tcg.Tb.t ->
  outcome:Repro_x86.Exec.outcome ->
  guest:int ->
  [ `Continue | `Invalidate ]
(** Post-execution check against the armed replay; [`Invalidate]
    signals the engine that guest state was repaired after a
    divergence. *)

val schedule : opt:Opt.t -> Repro_arm.Insn.t array -> Repro_arm.Insn.t array
(** The define-before-use scheduling pass (exposed for tests). *)

val rule_sites : t -> Repro_covscope.Static.t
(** Per rule, the sites this translator's first emissions translated
    and the host instructions they emitted. Installed code (depot
    waves, snapshot restores) is not emitted, so it counts nothing;
    a restore leaves the tally alone. *)

val stats_rule_covered : t -> int
val stats_fallback : t -> int

val blacklist_size : t -> int
(** Guest PCs permanently routed to the baseline translator. *)

(** {2 Snapshot support} *)

type saved = {
  s_blacklist : Word32.t list;
  s_shadow_done : (Word32.t * int) list;
  s_shadow_tries : (Word32.t * int) list;
  s_rule_covered : int;
  s_fallback : int;
  s_inter_tb_elisions : int;
}
(** The translator's durable state (sorted for stable encodings).
    Per-TB metadata is not part of it: each TB the translator emits
    carries its meta ({!Repro_tcg.Tb.meta}), so it rides with the code
    cache. *)

val save_state : t -> saved

val restore_state : t -> saved -> unit
(** Install [saved]'s tables and counters, and clear any pending
    shadow expectation. *)

val stale : t -> Repro_tcg.Tb.t -> bool
(** Live health would translate the TB differently: it carries this
    translator's meta, and its PC is blacklisted now, or its meta used
    a rule quarantined now. *)

val encode_meta : Repro_snapshot.Snapshot.Enc.t -> Repro_tcg.Tb.meta -> unit
(** Whether the TB carries this translator's meta, then the whole
    meta, rules by id. *)

val decode_meta :
  rule:(int -> Repro_rules.Rule.t option) option ->
  slots:int ->
  guest:Repro_arm.Insn.t array ->
  Repro_snapshot.Snapshot.Dec.t ->
  Repro_tcg.Tb.meta
(** What {!encode_meta} wrote, for a TB with [slots] exit slots whose
    guest instructions are [guest] (its chunks are their blocks);
    [No_meta] for a TB without one. [rule] is [None] on a machine
    without this translator, where a meta is refused. Raises
    {!Repro_snapshot.Snapshot.Corrupt} on that, an unknown rule id or
    flag convention, or a meta shaped for another block. *)
