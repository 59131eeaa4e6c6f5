(** Dynamic execution counters — the measurement substrate for every
    figure in the paper's evaluation. *)

type attribution
(** The translation-quality observatory: always-on per-attribution
    retirement counts and host-insn costs, keyed by the packed
    [Cnt_guest_insn] payload (see [Repro_covscope.Attr]), plus the
    open accrual window of the latest retirement. Read it through
    {!cov_entries}, {!cov_retired}, {!cov_attributed} and
    {!cov_residual}. *)

type t = {
  mutable host_insns : int;
      (** Dynamically executed host instructions, including modelled
          helper costs. *)
  by_tag : int array;  (** indexed by {!tag_index} *)
  mutable helper_insns : int;
      (** Portion of [host_insns] contributed by helper bodies. *)
  mutable helper_calls : int;
  mutable sys_insns : int;
      (** executed guest system-level instructions (helper-emulated) *)
  mutable guest_insns : int;  (** retired guest instructions *)
  mutable sync_ops : int;     (** coordination operations executed *)
  mutable mmu_accesses : int; (** memory accesses through the softMMU *)
  mutable irq_polls : int;    (** interrupt checks executed *)
  mutable tlb_misses : int;
  mutable engine_returns : int;
      (** TB exits that went back to the execution engine (context
          switches to QEMU, in the paper's terms), excluding helper
          calls. *)
  mutable chained_jumps : int; (** TB-to-TB transfers via block chaining *)
  mutable tb_translations : int;
  mutable irqs_delivered : int;
  mutable shadow_replays : int;
      (** completed shadow-verification comparisons of rule TBs *)
  mutable shadow_divergences : int;
      (** comparisons where translated execution differed from the
          reference replay (state was repaired from the replay) *)
  mutable rules_quarantined : int;
      (** rules newly quarantined by accumulated divergence strikes *)
  mutable quarantine_fallbacks : int;
      (** translations of blacklisted PCs routed to the baseline
          translator *)
  mutable livelocks_recovered : int;
      (** host-loop livelocks recovered by the watchdog (checkpoint
          rollback + degraded re-execution) *)
  mutable regions_formed : int;
      (** hot-region superblocks fused and installed in the code cache *)
  attribution : attribution;
}

val create : unit -> t
val reset : t -> unit
val tag_index : Insn.tag -> int
(** The tag's slot in [by_tag], in {!Insn.all_tags} order. *)

val charge_tag : t -> Insn.tag -> int -> unit
(** Add [n] host instructions under a tag (and to the total). *)

val tag_count : t -> Insn.tag -> int

val retire : t -> int -> unit
(** Retire one guest instruction under a packed attribution word: the
    host-insn cost accrued since the previous retirement is charged to
    the previous attribution, then the retirement is counted under the
    new one. Increments [guest_insns] — this is its only increment
    site, so the per-attribution counts partition it structurally.
    Attribution words are nonnegative. Once an attribution word has
    been seen, retiring under it neither allocates nor hashes
    polymorphically (the table is int-keyed, open-addressed). *)

val cov_entries : t -> (int * int * int) list
(** All [(attr, retirements, cost)] rows, sorted by attribution word. *)

val cov_retired : t -> int
(** Sum of per-attribution retirements (equals [guest_insns]). *)

val cov_attributed : t -> int
(** Sum of per-attribution costs; [host_insns - cov_attributed] is the
    untracked prologue/epilogue overhead plus the open tail. *)

val cov_residual : t -> int
(** Host insns since the last retirement — the open accrual window,
    reported without being charged (keeps reading side-effect-free). *)

val host_per_guest : t -> float
val sync_per_guest : t -> float
(** Sync-tagged host instructions per retired guest instruction —
    the paper's Fig. 17 metric. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One flat JSON object: every counter (per-tag host instructions as
    [host_<tag>]) plus derived [host_per_guest]/[sync_per_guest]
    ratios.  The machine-readable sibling of {!pp}. *)

val to_array : t -> int array
(** Every counter flattened in a fixed, documented order (snapshot
    payload; also the equality witness in restore bit-identity tests). *)

val load_array : t -> int array -> unit
(** Restore counters captured by {!to_array}. Raises
    [Invalid_argument] on length mismatch. *)
