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
  Repro_tcg.Runtime.t ->
  t
(** A translator for the machine whose runtime is given. [shadow_depth]
    (default 0 = disabled) is the number of verified executions per TB
    address; [quarantine_threshold] (default 2) the strikes that
    quarantine a rule. Every emission reports into the runtime's
    observers: per-pass static coordination savings into
    {!Repro_tcg.Runtime.t.ledger} (re-emissions as deltas) and each
    first emission's rule-template sites into
    {!Repro_tcg.Runtime.t.cov_static}; engine-entry restore costs
    (III-C.3) go to the ledger's dynamic view. *)

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

val fuse_trace :
  t -> Repro_tcg.Runtime.t -> Repro_tcg.Tb.Cache.t ->
  trace:Repro_tcg.Tb.t list -> Repro_tcg.Tb.t option
(** Fuse an already-selected constituent trace (snapshot rebuild
    replays a recorded one through this). *)

val link_hook :
  t -> pred:Repro_tcg.Tb.t -> slot:int -> succ:Repro_tcg.Tb.t -> unit

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

val stats_rule_covered : t -> int
val stats_fallback : t -> int

val blacklist_size : t -> int
(** Guest PCs permanently routed to the baseline translator. *)

val blacklisted : t -> Word32.t -> bool

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
    Per-TB metadata is not part of it: it rides with the code cache, as
    a {!frozen} value in a snapshot captured in this process, or
    re-derived by re-translation and {!restore_cache_meta} from
    bytes. *)

val save_state : t -> saved

val restore_state : t -> saved -> unit
(** Install [saved]'s tables, clear per-TB metadata and any pending
    shadow expectation. Call {e before} rebuilding the code cache
    (translation consults the blacklist), then {!restore_counters}
    after it (the rebuild itself bumps the counters). *)

val restore_counters : t -> saved -> unit

type frozen
(** A live TB's translator meta as it stood when {!freeze} took it:
    its emission chunks, exit states, rules used and link-time state
    (per-slot flag-save elisions, the entry flag-convention
    assumption). A value: nothing the translator does later changes
    it. *)

val freeze : t -> Repro_tcg.Tb.t -> frozen option
(** [None] for TBs the rule emitter did not produce (baseline
    fallbacks). *)

val frozen_link_meta : frozen -> bool array * Repro_rules.Flagconv.t option
(** The link-time part of a frozen meta, the part snapshot bytes
    record. Do not mutate the array. *)

val unchanged_since : t -> Repro_tcg.Tb.t -> frozen option -> bool
(** The TB's live link-time meta equals the frozen one (and both
    exist or neither does). Every other part of a meta changes only
    with the TB's program. *)

val thaw : t -> Repro_tcg.Tb.t -> frozen -> unit
(** Install a frozen meta for a TB rebuilt from captured code, as the
    TB's live meta; nothing is re-emitted. *)

val restore_cache_meta :
  t ->
  Repro_tcg.Tb.t ->
  elide:bool array ->
  entry_conv:Repro_rules.Flagconv.t option ->
  unit
(** Re-apply captured link-time meta to a freshly rebuilt TB,
    re-emitting its code if it differs from the just-translated
    default — the rebuilt prog becomes bit-identical to the captured
    one. *)
