(** Convenience façade: a complete emulated machine under either the
    QEMU-style baseline or the rule-based engine at a chosen
    optimization level. This is the API the examples, experiments and
    CLI drive.

    Robustness layer: the machine can be checkpointed into
    crash-consistent {!Repro_snapshot.Snapshot} containers and
    restored bit-identically (CPU, RAM, TLB, devices, injector PRNG,
    statistics, translation cache and its chain graph, resume cursor);
    a {!Repro_snapshot.Journal} records externally-visible events at
    retired-instruction timestamps; and a livelock watchdog rolls a
    runaway host loop back to the last checkpoint and re-executes
    under a degraded engine instead of killing the process. *)

open Repro_common
module Snapshot := Repro_snapshot.Snapshot
module Journal := Repro_snapshot.Journal

type mode =
  | Qemu  (** the unmodified QEMU 6.1 stand-in (baseline) *)
  | Rules of Opt.t  (** the learning-based engine *)

val mode_name : mode -> string

val modes : (string * mode) list
(** The engine presets by command-line name, in paper order: [qemu],
    the four cumulative levels ([base], [reduction], [elimination],
    [full]), then the two extensions ([regions], [future]). *)

(** {2 Degradation ladder} *)

type rung = Rung_rules | Rung_baseline | Rung_interp
    (** The watchdog's engine ladder, best to worst. [Qemu]-mode
        machines start at [Rung_baseline]; [Rules _] machines at
        [Rung_rules]. *)

val rung_name : rung -> string
(** ["rules"], ["baseline"], ["interpreter"]. *)

type depot_state
(** Warm-boot bookkeeping for code loaded from a persistent depot:
    which are installed in the live cache, which are still pending
    (their guest-memory world does not exist yet) and which are dead
    for the current cache generation. See {!depot_install}. *)

type t = {
  mode : mode;
  rt : Repro_tcg.Runtime.t;
  cache : Repro_tcg.Tb.Cache.t;
  rule_translator : Translator_rule.t option;
  ruleset : Repro_rules.Ruleset.t option;
      (** the ruleset driving [rule_translator] (health state is part
          of every snapshot); [None] in [Qemu] mode *)
  scope : Repro_perfscope.Scope.t option;  (** see {!create} *)
  mutable journal : Journal.t;
      (** events recorded since the last clean checkpoint *)
  mutable pending_resume : Repro_tcg.Engine.resume option;
      (** set by {!restore}; consumed by the next {!run} to re-enter
          the engine loop exactly where the snapshot was taken *)
  mutable last_checkpoint : Snapshot.t option;
      (** watchdog rollback target (last clean-dispatch checkpoint) *)
  mutable stop_checkpoint : Snapshot.t option;
      (** checkpoint taken when the previous run hit its instruction
          limit — what {!snapshot} returns so a saved run resumes
          bit-identically *)
  mutable last_capture : Snapshot.t option;
      (** the snapshot this machine last captured or restored: a
          capture shares each of its sections whose bytes did not
          change since ({!Snapshot.add} [?prev]) *)
  mutable rung_floor : rung;
      (** sticky degradation floor: the best engine rung this machine
          is still allowed to run. Ratchets down on watchdog
          demotions, rides in snapshots (["degrade"] section), and
          merges downward on {!restore} — prefer {!degrade_floor}
          over writing it directly *)
  mutable depot : depot_state option;
      (** set by {!depot_install}; [None] means cold *)
}

val create :
  ?ram_kib:int ->
  ?ruleset:Repro_rules.Ruleset.t ->
  ?tb_capacity:int ->
  ?inject:Repro_faultinject.Faultinject.t ->
  ?shadow_depth:int ->
  ?quarantine_threshold:int ->
  ?trace:Repro_observe.Trace.t ->
  ?ledger:Repro_perfscope.Ledger.t ->
  ?scope:Repro_perfscope.Scope.t ->
  mode ->
  t
(** [ruleset] defaults to the builtin set; ignored in [Qemu] mode.
    [tb_capacity] bounds the code cache (default 4096 TBs; at capacity
    the whole cache is flushed, QEMU's buffer-full policy).

    [inject] arms every fault-injection point (MMU, engine,
    translators; the bus point is armed when {!run} starts so image
    loading is never perturbed). [shadow_depth] and
    [quarantine_threshold] configure shadow verification of
    rule-translated TBs (see {!Translator_rule}); ignored in [Qemu]
    mode.

    The observers attach to the runtime ({!Repro_tcg.Runtime.create}).
    [trace] installs a structured event ring shared by the timer, the
    softMMU helpers, the injector, the rule translator, the watchdog
    and the snapshot layer; its clock is retired guest instructions.
    The engine's own events reach it through a trace fold over charge
    windows, except [halt] and [fuel_exhausted], which {!run} emits
    from the engine's result. [ledger] enables the per-pass
    coordination-savings attribution (see {!Repro_perfscope.Ledger});
    the rule translator feeds its static view. [scope] attaches a
    performance scope (see {!Repro_perfscope.Scope}); {!run} feeds
    its checkpoint intervals. The runtime's observer hook is the
    scope's, the ledger's and the trace's folds composed: each sees
    every charge window the engine closes. All of them are purely
    observational: guest-visible behaviour and every modelled cost
    counter are bit-identical with or without them, and none rides
    in snapshots — a restored machine continues accumulating into
    whatever observers it was created with. Code
    installed from a snapshot or a depot was not emitted here, so it
    records no statics. (Watchdog rollbacks reload [Stats] from the checkpoint
    but the scope keeps its accumulations, so under injection the
    scope's phase total can exceed the final [host_insns].) *)

val load_image : t -> Word32.t -> Word32.t array -> unit

val rung_floor : t -> rung
(** Current degradation floor (see {!type-rung}). *)

val degrade_floor : t -> bool
(** Force the floor one rung down (the supervision layer's demotion
    lever, mirroring what a watchdog livelock does internally).
    Returns [false] when already on the last rung. Flushes nothing by
    itself — the next {!run} starts on the new rung because
    translation is per-run. *)

val run :
  ?chaining:bool ->
  ?max_guest_insns:int ->
  ?deadline:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Snapshot.t -> unit) ->
  ?watchdog:bool ->
  ?on_postmortem:(reason:string -> Snapshot.t -> unit) ->
  t ->
  Repro_tcg.Engine.result
(** Run from the current CPU state (reset state initially), or from a
    {!restore}d resume cursor when one is pending.

    [chaining] (default true) toggles TB block chaining — the ablation
    substrate for the inter-TB experiments.

    [deadline] (default none) is an absolute retired-guest-insn clock
    value: once [stats.guest_insns] reaches it the run stops with
    [`Deadline] — the typed per-request timeout the supervision layer
    builds on. No stop checkpoint is published (a timed-out request is
    discarded, not resumed) and the watchdog does not intervene.

    [checkpoint_every] (default 0 = off) arms periodic snapshots at
    TB boundaries, handed to [on_checkpoint]; one also fires when the
    run stops at [max_guest_insns] (retrievable via {!snapshot}).

    [watchdog] (default true): on a host-code livelock (fuel
    exhaustion in a runaway TB), roll back to the last clean
    checkpoint — one is taken at run start — bump
    [stats.livelocks_recovered], and re-execute under a degraded
    engine: rules -> baseline -> single-instruction interpreter TBs.
    A livelock on the last rung (or with the watchdog off) surfaces as
    [`Livelock]. Demotions are sticky: each one lowers {!rung_floor},
    so later runs (and snapshots taken from them) start on the
    demoted rung instead of re-trusting the engine that livelocked.

    [on_postmortem ~reason dump] fires when shadow verification
    repairs a divergence or the watchdog catches a livelock: [dump] is
    the last clean checkpoint plus the expected event journal and
    [reason] — and, when the machine has a scope, its rendered
    hot-block table in the ["profile"] section — ready for {!replay} (or
    [Snapshot.save_file] and [repro-dbt-run --replay]). *)

val stats : t -> Repro_x86.Stats.t

val coverage_report : t -> Repro_covscope.Report.t
(** Build the translation-quality report (tier partition, opcode-class
    matrix, per-rule ledger, opportunity queue) over the machine's
    always-on {!Repro_x86.Stats} attribution table, with each rule's
    static sites from the rule translator's tally
    ({!Translator_rule.rule_sites}; zero in [Qemu] mode). Read-only: never
    perturbs execution. Raises [Failure] if the tier partition
    invariant is broken. *)

val cpu : t -> Repro_arm.Cpu.t
val journal : t -> Journal.t
val uart_output : t -> string

(** {2 Snapshots} *)

val snapshot : t -> Snapshot.t
(** The checkpoint captured when the previous run stopped at its
    instruction limit (carrying the engine resume cursor, so the
    restored run continues bit-identically), or a fresh capture of the
    current state when there is none. *)

val restore : ?rebuild:bool -> t -> Snapshot.t -> unit
(** Restore a snapshot into a machine created with the same shape
    (mode, RAM size, injector presence/behavior, ruleset). [rebuild]
    (default true) installs the captured live TB set and its chain
    graph as captured, from the value a capture in this process holds
    or from its bytes alike: nothing is translated, and every TB keeps
    its id. When the merge below grew the health, a TB whose PC is
    blacklisted now or whose code used a rule quarantined now is
    dropped, with every superblock over it, and translates on demand.
    [false] just flushes the cache (the watchdog's rollback path).
    Raises [Snapshot.Corrupt] on any mismatch or damaged section.

    Demotion state (PC blacklist, per-rule strikes and quarantine,
    degradation floor) {e merges} instead of replacing: restore takes
    the union of blacklists and quarantine sets, the per-rule maximum
    of strike counts, and the lower of the two rung floors, so rolling
    a machine back to an older snapshot never re-trusts a rule, PC or
    engine it has demoted since. Restoring into a fresh machine
    installs the snapshot's health verbatim (merge with empty state),
    keeping save/restore bit-identity. Shadow-verification progress is
    taken from the snapshot as-is (re-verifying is always sound). *)

val snapshot_mode : Snapshot.t -> mode
(** The mode a snapshot was taken under (to construct a matching
    machine). Raises [Snapshot.Corrupt]. *)

val snapshot_injector : Snapshot.t -> Repro_faultinject.Faultinject.t option
(** A fresh injector matching the snapshot's captured injector state,
    or [None] if the capture ran without one. *)

val snapshot_ram_kib : Snapshot.t -> int

val snapshot_clean : Snapshot.t -> bool
(** Whether the snapshot is a clean restart target: captured outside a
    run, or at an engine-dispatch boundary (the resume cursor's
    [rneeds_enter]). Mid-chain captures resume bit-identically under
    the engine that took them but carry live inter-TB host state, so
    supervision restarts (which may re-run under a degraded engine)
    must come from clean snapshots only. *)

(** {2 Deterministic replay} *)

type replay_report = {
  rep_reason : string option;  (** the dump's recorded failure reason *)
  rep_expected : Journal.event list;
      (** events the original run produced after the checkpoint *)
  rep_actual : Journal.event list;  (** events the replay produced *)
  rep_result : Repro_tcg.Engine.result;
  rep_ok : bool;
      (** the expected events are a prefix of the replayed ones —
          the failure reproduced deterministically *)
}

val replay : ?slack:int -> t -> Snapshot.t -> replay_report
(** Restore a post-mortem dump and re-execute (watchdog off) until
    [slack] guest instructions past the last expected event,
    comparing the event journals. *)

(** {2 The persistent AOT code depot}

    A {!Repro_aotcache.Depot} holds a machine's learned ruleset plus
    its translated code (TBs and superblocks, host programs included,
    in the snapshot byte form), so a fresh boot of the same image and
    mode starts {e warm}: the code installs instead of being
    translated, and the guest-visible run is bit-identical to a cold
    boot. Nothing architectural is touched.

    Installation goes in {e waves}: an entry installs once guest memory
    holds its block (read with no side effect under the entry's
    regime), so {!depot_install} installs what memory holds at boot
    and the rest waits for the first cache miss in its regime. A wave
    translates nothing and draws from no injector; its one machine
    change is the write-protect TLB tags on installed code. It adopts
    TBs the engine already translated, gives the rest fresh ids,
    installs a superblock once all its members are, and links only
    installed entries.

    Every function here raises {!Repro_aotcache.Depot.Depot_error}
    (and nothing else) when the depot cannot be used; callers degrade
    to a cold start. *)

val depot_capture : t -> Repro_aotcache.Depot.t
(** Package the machine's current ruleset, live translation cache and
    durable rule health into a depot (generation stamped on save). Raises on a machine demoted
    below its natural rung — degraded caches are not publishable. *)

val depot_install : t -> Repro_aotcache.Depot.t -> int
(** Verify the depot's compatibility key (mode, ruleset digest, hot
    threshold, natural rung) against this machine, ratchet in its
    durable health (union/max merge), skip quarantined (poisoned)
    entries, and run the first install wave. Call after {!load_image},
    before {!run}. Returns the number of entries installed by the
    first wave; the rest install from miss-triggered waves during
    {!run}. Raises {!Repro_aotcache.Depot.Depot_error} on any
    incompatibility or undecodable payload, leaving the machine cold
    but unharmed. *)

val depot_hit : t -> pc:Word32.t -> Repro_tcg.Tb.t option
(** The engine's miss hook under a depot: when [pc] in the machine's
    current regime (privilege, MMU) names an entry not installed in
    the current cache generation, run an install wave and return that
    entry's TB. [None] when there is no such entry, and for an entry
    that cannot install even at its own miss (it is dead from then
    on). The first miss after a cache flush forgets every install of
    the earlier generation. {!run} calls it; it is exposed so drills can trigger a miss
    wave without executing guest code. *)

val depot_coverage : t -> int * int
(** [(installed, pending)] entry counts for the current cache
    generation; [(0, 0)] when no depot is attached. *)

val depot_poisoned : t -> int list
(** Guest PCs of depot-served TBs that shadow verification invalidated
    this process — write them back with
    {!Repro_aotcache.Depot.quarantine_pcs} + save so they never
    reload. Sorted ascending. *)

val depot_check : Repro_aotcache.Depot.t -> int * int
(** Machine-free structural verification: decode the code (every
    count, constructor and index, rule ids against the depot's own
    ruleset) and the health payload with {!depot_install}'s own
    decoder. Returns [(plain TBs, superblocks)]; raises
    {!Repro_aotcache.Depot.Depot_error} on damage. *)

val depot_quarantine_rules : Repro_aotcache.Depot.t -> int list -> bool
(** Fold breaker-quarantined rule ids into the depot's durable health
    section (fleet write-back). Returns [true] when the set grew and a
    save is warranted. *)
