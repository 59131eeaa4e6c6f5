(** The per-run performance scope: deterministic per-phase /
    per-region cost attribution, the per-block hot-code table and the
    three latency histograms (IRQ raise->deliver, TB lookup->chain,
    checkpoint intervals), all on the retired-guest-insn clock.

    Everything is a {!fold} over the engine's charge windows: the
    scope maps engine sites and host-insn tags to phases, keeps the
    site rows and the hot-block rows, and times translate->chain and
    IRQ raise->deliver. Purely observational (attached runs are
    bit-identical to bare ones) and deliberately excluded from
    snapshots. Over any engine run without watchdog rollbacks the
    phase totals partition the run's
    {!Repro_x86.Stats.t.host_insns} delta exactly. *)

type t

val create : unit -> t

val fold : t -> Repro_tcg.Window.t -> unit
(** Attribute one charge window. An engine site charges it whole to
    its phase ({!Phase}) and (4 KiB page, privilege) site row; a
    translation starts the TB's translate->chain clock, its first link
    stops it, a delivery records its raise->deliver latency. An
    [Entered] window splits by tag onto the TB's site row, a [Ran]
    window onto its hot-block row: Compute to [Execute], Sync and
    interrupt polls to [Coordinate], Mmu to [Softmmu], glue to
    [Helper]. *)

(** {2 The hot-block table}

    One row per (guest pc, privilege, region?) — the moral equivalent
    of QEMU's [-d exec] plus a perf-style hot-block report. A row
    holds exactly the TB's run windows: executions, guest
    instructions retired and host instructions spent, including
    modelled helper costs incurred {e during} the run. Everything
    charged outside those windows stays out of the table: engine
    dispatch, chain jumps, interrupt delivery and its lazy flag parse,
    translation, exception entries, entry-hook restores, shadow-replay
    cost, and TB runs abandoned by the fuel watchdog. The table's host
    total is therefore a lower bound on
    {!Repro_x86.Stats.t.host_insns}. Rows aggregate over cache
    flushes: retranslations of the same key accumulate into one row. *)

type block = private {
  pc : int;
  privileged : bool;  (** kernel- vs user-mode translation *)
  region : bool;
      (** a fused superblock (kept apart from the plain TB sharing its
          head PC) *)
  insns : Repro_arm.Insn.t array;
      (** the TB's guest code (empty for the interpreter-helper TB,
          which carries no decoded instruction) *)
  mutable execs : int;  (** completed executions *)
  mutable guest_retired : int;  (** dynamic guest instructions *)
  mutable host_spent : int;  (** dynamic host instructions *)
  phases : int array;
      (** {!Phase}-indexed split of [host_spent] (execute / coordinate
          / softmmu / helper within the run windows) *)
}

val blocks : t -> block list
(** All rows, unordered. *)

val top_blocks : ?by:[ `Host | `Execs ] -> int -> t -> block list
(** The [n] hottest rows, by host instructions spent (default) or by
    executions. *)

val pp_blocks : ?top:int -> Format.formatter -> t -> unit
(** A hot-block table (default: 10 rows) with per-TB host/guest
    expansion and each TB's share of the table's host total, plus a
    phase-split footer. *)

val pp_disasm : Format.formatter -> block -> unit
(** The row's guest code, one instruction per line with PCs. *)

val flame : t -> frames:(block -> string list) -> Flame.t
(** A flamegraph of the table: each row's phase split, weighted in
    host instructions, under the frames [frames row] followed by the
    phase name. *)

(** {2 Totals and latencies} *)

val phase_count : t -> Phase.t -> int
val total : t -> int

val phase_vector : t -> int array
(** A fresh copy of the per-phase totals in {!Phase.index} layout —
    the per-machine cost signature fleet telemetry aggregates and
    scores for anomalies. Monotone across restores and watchdog
    rollbacks (the scope never rewinds), unlike the snapshot-restored
    {!Repro_x86.Stats} counters. *)

val irq_latency : t -> Histo.t
val chain_latency : t -> Histo.t
val checkpoint_interval : t -> Histo.t

val note_checkpoint : t -> at:int -> unit

val to_json : t -> string
(** [{"phases":{...},"regions":[...],"histograms":{...}}] — the
    ["perf"] section of [--stats-json]; byte-identical across
    same-seed runs. A region row is a (page, privilege) pair: its
    site charges plus its blocks' run windows. *)
