(** Coordination ledger — attributes coordination savings (sync ops
    and Sync-tagged host instructions removed) to the optimization
    pass responsible, statically (per translation) and dynamically
    (per TB execution).  Reproduces the paper's Fig. 17 breakdown.

    The emitter builds a {e provenance vector} per TB while emitting:
    for each pass, how many sync ops and host instructions the
    emitted code saves versus the counterfactual with that pass
    disabled.  [record_static] sums it once at translation; the
    dynamic view is a {!fold} over the engine's charge windows, which
    sums it on every execution of the TB.  Negative entries mean the
    pass costs coordination in that view (e.g. III-C.3 installs an
    entry-convention check and pays an engine-side flag restore;
    III-B pays a lazy flag parse at interrupt delivery). *)

type pass =
  | Reduction       (** III-B: flag-use reduction *)
  | Elim_restores   (** III-C.1: redundant restore elimination *)
  | Elim_mem        (** III-C.2: save/restore elimination around helpers *)
  | Inter_tb        (** III-C.3: inter-TB save elision *)
  | Sched_dbu       (** III-D.1: flag-sync scheduling *)
  | Sched_irq       (** III-D.2: interrupt-check scheduling *)
  | Region          (** hot-region superblock fusion: boundary Sync
                        pairs and per-block interrupt checks removed
                        by fusing a hot chained trace into one body *)

val passes : pass list
val pass_index : pass -> int
val pass_id : pass -> string
(** Paper section: ["III-B"], ["III-C.1"], … *)

val pass_name : pass -> string

(** {2 Provenance vectors}

    Flat int array of length [prov_len = 2 * n_passes]: slot [2*i]
    holds sync ops saved, slot [2*i+1] host instructions saved, for
    the pass with index [i]. *)

val prov_len : int
val zero_prov : unit -> int array
val prov_add : int array -> pass -> ops:int -> insns:int -> unit
val prov_diff : old_:int array -> int array -> int array
(** Elementwise [p - old_] (missing [old_] slots read as 0) — the
    static delta when a TB is re-emitted in place. *)

(** {2 Ledger} *)

type t

val create : unit -> t

val record_static : t -> int array -> unit
(** Sum a TB's provenance into the static view (call once per
    translation, or with a {!prov_diff} delta on re-emission).
    Vectors of the wrong length are ignored. *)

val record_static_delta : t -> int array -> unit
(** Like {!record_static} but without bumping the translation count —
    for {!prov_diff} deltas when a TB is re-emitted in place. *)

val fold : t -> Repro_tcg.Window.t -> unit
(** The dynamic view: a [Ran] window adds its TB's provenance
    ([[||]] from the baseline translator adds nothing, nor does an
    all-zero vector count as an attributed execution); an
    [Irq_delivered] window's Sync is III-B's lazy flag parse (negative
    insns), an [Entered] window's sync ops and Sync are III-C.3's
    engine-side flag restore (negative ops and insns). Outside emitted
    code Sync is charged only at those two sites. *)

val static_ops : t -> pass -> int
val static_insns : t -> pass -> int
val dyn_ops : t -> pass -> int
val dyn_insns : t -> pass -> int
val total_static_ops : t -> int
val total_static_insns : t -> int
val total_dyn_insns : t -> int

val pp_report : Format.formatter -> t -> unit
val to_json : t -> string
