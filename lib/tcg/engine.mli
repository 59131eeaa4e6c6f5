(** The shared execution engine (QEMU's cpu_exec loop): code-cache
    lookup, translation, block chaining, interrupt delivery, device
    time, and the modelled cost of every transition that leaves the
    code cache.

    The engine is parameterized over a translator, so the baseline and
    the rule-based system run under identical system-level conditions
    — the comparison the paper's evaluation makes. *)

open Repro_common

type translator = Runtime.t -> Tb.Cache.t -> pc:Word32.t -> (Tb.t, Repro_arm.Mem.fault) result

type result = {
  reason :
    [ `Halted of Word32.t | `Insn_limit | `Livelock of Word32.t | `Deadline ];
      (** [`Livelock pc]: the TB at [pc] exhausted its host fuel (a
          runaway loop in corrupted emitted code). Guest state is
          mid-block and unusable — roll back to a checkpoint.

          [`Deadline]: the per-request deadline (an absolute retired-
          guest-insn clock value) passed — the typed timeout the
          supervision layer turns into a request-level result. Guest
          state is consistent (the stop happens at a TB boundary) but
          no checkpoint is taken: a timed-out request is discarded. *)
  executed_guest_insns : int;
}

type resume = {
  rpc : Word32.t;  (** guest PC of the TB about to execute *)
  rprivileged : bool;
  rmmu_on : bool;
  rneeds_enter : bool;
      (** whether the engine still owes the TB its [on_enter]
          callback — false when the checkpoint was taken mid-chain
          (the TB was reached by a chained jump, with host state
          live) *)
}
(** The engine-loop phase captured by a checkpoint: enough, together
    with the machine state proper, to re-enter {!run} exactly where
    the checkpointed run stood. *)

val run :
  Runtime.t ->
  Tb.Cache.t ->
  translate:translator ->
  ?link_hook:(pred:Tb.t -> slot:int -> succ:Tb.t -> unit) ->
  ?on_enter:(Tb.t -> unit) ->
  ?on_executed:
    (Tb.t -> outcome:Repro_x86.Exec.outcome -> guest:int -> [ `Continue | `Invalidate ]) ->
  ?chaining:bool ->
  ?max_guest_insns:int ->
  ?deadline:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(resume -> unit) ->
  ?resume:resume ->
  ?on_irq:(Word32.t -> unit) ->
  ?on_hot:(Tb.t -> Tb.t option) ->
  unit ->
  result
(** Run from the mirror CPU's current state until the guest powers off
    or [max_guest_insns] (default [max_int]) guest instructions have
    retired. On return the mirror CPU and [env] are consistent.

    [chaining] (default true) enables TB→TB block chaining; disabling
    it forces an engine dispatch on every TB transition (the ablation
    of the common optimization the paper's §III-C-3 builds on).

    [deadline] (default none) is an absolute retired-guest-insn clock
    value ([stats.guest_insns]); once reached the run stops with
    [`Deadline] at the next loop iteration. It is checked before the
    instruction budget, takes no checkpoint, and composes with
    [max_guest_insns] (whichever trips first wins).

    Observers attach to the runtime, not to the run. At every site
    where control leaves or enters emitted code the engine closes one
    {!Window.t} (the per-tag host-instruction and sync-op deltas since
    the last close, the site's page and privilege, and what happened)
    and hands it to {!Runtime.t.observer}; with none attached it
    splits nothing. The engine knows no phases, scopes, ledgers or
    trace events: those are folds over the windows. A halt or a
    livelock ends the run with no window after it; its caller reads
    them off the result.

    [on_enter tb] fires on every entry to [tb] that goes through the
    engine (initial dispatch, unlinked/indirect transitions, exception
    and interrupt re-entry) — {e not} on chained TB→TB jumps. The
    rule-based engine uses it to restore host-resident state that the
    inter-TB optimization assumes live.

    [on_executed tb ~outcome ~guest] fires after every TB execution
    (chained or not) with the raw {!Repro_x86.Exec.outcome} and the
    number of guest instructions the execution retired. Returning
    [`Invalidate] tells the engine the caller repaired guest state
    (shadow-verification divergence): the whole code cache is flushed
    and execution re-dispatches at the repaired [env] PC. A halted
    machine takes precedence over the verdict.

    [checkpoint_every] (default 0 = off) arms periodic checkpoints:
    every time at least that many guest instructions have retired
    since the last one, [on_checkpoint] fires at the next TB boundary
    — before the pending [on_enter], so translator shadow state is
    quiescent — with the {!resume} record describing the loop phase.
    [on_checkpoint] also fires once when the run stops at
    [max_guest_insns], so a saved snapshot captures the exact
    stopping point.

    [resume] (from a restored snapshot) starts the loop at the
    recorded TB in the recorded phase instead of dispatching at the
    mirror CPU's PC; the initial cpu->env sync is skipped because the
    restored [env] (including lazy-flag state no sync can recreate)
    is already authoritative.

    [on_irq pc] fires on each delivered interrupt with the guest PC
    it preempted (the event journal's IRQ record). *)

val hot_threshold : int
(** Executions of a plain TB before the engine offers it to [on_hot]
    (32). [on_hot tb], when given, is called exactly once per TB at
    that threshold; returning [Some region] dispatches the
    freshly-installed superblock in the TB's place and drops the head's
    jump-cache entry. Counters live in {!Tb.t.hot} and are serialized
    in snapshots, so formation fires at the same retired-instruction
    point after a restore. *)
