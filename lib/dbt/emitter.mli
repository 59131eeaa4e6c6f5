(** The rule-based TB emitter — the paper's core contribution.

    Guest registers r0–r8/sp/lr live in pinned host registers and the
    condition flags live in host EFLAGS while translated code runs;
    every transfer of control into QEMU (memory-access helpers,
    system-level instructions, uncovered instructions, TB exits,
    interrupt checks) requires {e CPU-state coordination}: Sync-save
    of dirty pinned state into env before, and (lazy) Sync-restore
    after. The emitter is a small abstract interpreter over that
    residency state; the {!Opt.t} switches control how eagerly it
    coordinates, reproducing the paper's unoptimized (slower than
    QEMU) and optimized (1.36x faster) designs from one code base. *)

open Repro_common
module A := Repro_arm.Insn

type exit_state = {
  conv_at_exit : Repro_rules.Flagconv.t option;
      (** flags convention live in EFLAGS when this exit is reached
          (after the epilogue; [None] when EFLAGS holds nothing) *)
  flags_save_in_epilogue : bool;
      (** the epilogue of this exit contains a flag Sync-save that
          inter-TB linking may elide *)
}

type result = {
  prog : Repro_x86.Prog.t;
  exits : Repro_tcg.Tb.exit_kind array;
  exit_states : exit_state array;
  first_flag_is_def : bool;
      (** this TB defines guest flags before any use — the successor
          condition of the paper's inter-TB optimization *)
  rule_covered : int;  (** guest insns translated via rules *)
  fallback : int;      (** guest insns sent to the interp helper *)
  rules_used : (Repro_rules.Rule.t * int) list;
      (** distinct rules whose host templates were emitted, each with
          the OR of its matched instructions' guest register def-masks
          — shadow verification attributes divergences to rules by the
          registers they wrote *)
  prov : int array;
      (** coordination-savings provenance
          ({!Repro_perfscope.Ledger.prov_len} slots): per optimization
          pass, the sync ops and host instructions this emission saves
          over the counterfactual with that pass disabled.  Observational
          only — accumulating it never changes the emitted program. *)
  cov_sites : (int * int) list;
      (** [(rule id, emitted host insns)] per rule-template site, in
          emission order — the translation-time side of the coverage
          per-rule ledger ({!Repro_covscope.Static}) *)
}

val save_cost : reduction:bool -> Repro_rules.Flagconv.t -> int
(** Real host instructions of a flag Sync-save under the given design
    (III-B packed vs one-to-many parsed); the counterfactual cost
    table the provenance uses.  Exposed for the ledger tests. *)

val restore_cost : reduction:bool -> int
(** Likewise for a flag Sync-restore. *)

type chunk = {
  pc : Word32.t;  (** guest PC of the chunk's first instruction *)
  insns : A.t array;  (** the fetched block, after scheduling *)
  origins : int array;
      (** each scheduled instruction's index in the fetched block, so
          branch targets and fault/resume PCs refer to real guest
          addresses *)
  hoists : int;
      (** define-before-use hoists the scheduler applied to [insns],
          credited to III-D.1 in the provenance (emission ignores it) *)
}
(** One fetched guest block: a plain TB is one chunk, a superblock
    region one chunk per constituent TB. *)

val emit :
  opt:Opt.t ->
  ruleset:Repro_rules.Ruleset.t ->
  privileged:bool ->
  chunks:chunk array ->
  ?elide_flag_save:bool array ->
  ?entry_conv:Repro_rules.Flagconv.t ->
  unit ->
  result
(** Emit [chunks], in execution order, as one body. The abstract
    coordination state flows across chunk seams: an interior chunk
    falls into the next through its final B's direction (or its
    fall-through), whose boundary Sync pair and interrupt check are
    then gone (credited to the [Region] ledger pass); the other
    direction of a conditional B keeps a normal epilogue exit.

    A single chunk is a plain TB: {!Repro_tcg.Tb.exit_slots} exit slots,
    coverage in the [Rule] tier, an interrupt check that III-D.2 may
    schedule down to the first memory access, and the naive eager
    prologue Sync-restore when [elim_restores] is off. Several chunks
    are a region: {!Repro_tcg.Tb.region_exit_slots} exit slots, the
    [Region] tier, one interrupt check at the head. Either way
    {!Repro_tcg.Tb.slot_irq} is the interrupt slot.

    [elide_flag_save] (indexed by exit slot) drops the epilogue flag
    save on slots whose chained successor redefines flags before use;
    [entry_conv] marks a body that may be entered with live guest flags
    in EFLAGS under the given convention (set on such successors; the
    interrupt check then stays at the head and its stub spills EFLAGS
    before exiting, paper Fig. 7).

    Raises {!Repro_tcg.Tb.Tb_too_complex} when the exits overflow their
    slots or the chunks cannot be fused (a seam whose successor chunk
    is not where its direction goes, an interior chunk ending in
    anything but B) — callers retry shorter or keep the TBs unfused. *)
