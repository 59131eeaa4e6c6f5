(** Crash-only supervision of one machine serving from a warm snapshot.

    A supervisor owns one {!Repro_dbt.System} built to the shape of a
    shared warm base snapshot (mode, RAM size, injector behavior).
    Every request — and every retry within a request — begins with a
    restore: from the request's own last {e clean} checkpoint when one
    exists, else from the base. The failure policy is explicit:

    - per-request deadlines on the retired-guest-insn clock, surfacing
      as the typed {!Timed_out} outcome;
    - automatic restart from the last clean checkpoint with a bounded
      retry budget and deterministic, PRNG-jittered exponential
      {!Backoff};
    - a {!Health} ladder fed by watchdog recoveries, shadow-
      verification divergences, deadline timeouts and crashes;
      reaching quarantine also drops the machine's engine floor one
      rung ({!Repro_dbt.System.degrade_floor});
    - a machine whose retry budget runs out is killed ({!Gave_up}).

    Everything is deterministic: injector entropy is derived per
    (machine, request, attempt) from the fleet plan's per-machine seed,
    so the same fleet seed replays the same failures, restarts and
    backoff delays. *)

type policy = {
  deadline : int;
      (** per-request budget in retired guest instructions; fixed as
          one absolute clock value at the request's first attempt, so
          watchdog rollbacks and checkpoint resumes never shrink it *)
  retry_budget : int;  (** restarts allowed per request before death *)
  checkpoint_every : int;  (** periodic-checkpoint interval (insns) *)
  backoff_base : int;  (** first restart-delay window (insns) *)
  backoff_cap : int;  (** restart-delay ceiling (insns) *)
  degrade_after : int;  (** health strikes to leave [Healthy] *)
  quarantine_after : int;  (** health strikes to quarantine *)
  shadow_depth : int;  (** shadow-verification depth per rule TB *)
  quarantine_threshold : int;  (** per-rule strike limit *)
}

val default_policy : policy
(** deadline 2M insns, 3 retries, checkpoints every 4k, backoff
    10k..1M, degrade at 1 strike / quarantine at 4, shadow depth 4,
    rule quarantine threshold 2. *)

type reference = { r_code : int; r_uart_digest : string; r_insns : int }
(** The fault-free ground truth a served result is verified against:
    halt code, MD5 of the UART byte stream, and net retired guest
    instructions. *)

type outcome =
  | Served of { code : int; insns : int; attempts : int }
      (** verified result; [insns] is net retired work from the base
          clock, [attempts] counts runs (1 = no restart) *)
  | Timed_out  (** the deadline passed; the request is discarded *)
  | Rejected  (** the machine was not serving (quarantined or dead) *)
  | Gave_up of { attempts : int }
      (** retry budget exhausted; the machine is now dead *)

val outcome_name : outcome -> string

type t

val create :
  ?plan:Repro_faultinject.Faultinject.Plan.t ->
  id:int ->
  policy:policy ->
  Repro_snapshot.Snapshot.t ->
  t
(** [create ~id ~policy base] builds the machine to [base]'s shape and
    restores it once (pinning the base insn-clock value). [plan], when
    given, arms the fleet chaos plan's faults for this machine id on
    every restore. Raises [Snapshot.Corrupt] / [Snapshot.Load_error]
    if [base] is damaged.

    Every supervised machine additionally carries an always-on
    observability surface, so telemetry export never changes what was
    recorded: its own trace ring ({!trace_ring}, fed by the engine and
    by [Request]-category request-lifecycle events on the monotone
    {!work_insns} clock), a perfscope ({!scope}) attributing every
    retired host instruction to a phase, and a serve-latency histogram
    ({!latency}). All three are purely observational (see
    {!Repro_dbt.System.create}); drill results are bit-identical
    whether or not anything reads them. *)

val serve : ?reference:reference -> t -> request:int -> unit -> outcome
(** Serve one request under the policy. With [reference], a halt whose
    code or UART digest mismatches counts as a crash (wrong result) and
    is retried like any other failure. *)

val verify_clean : t -> reference -> bool option
(** Restore the base, disarm every fault site, run once and compare
    the architectural output (halt code and UART byte stream) against
    [reference] — the standing recovery invariant: whatever a
    surviving machine quarantined, blacklisted or degraded along the
    way, its fault-free output must stay bit-identical. The retired-
    insn total is deliberately {e not} compared: timer IRQs are
    delivered at TB boundaries, which shift across engine rungs and
    under quarantine fallback, so the count is engine-dependent at the
    margin. [None] if the machine is dead. *)

val id : t -> int
val health : t -> Health.t
val machine : t -> Repro_dbt.System.t

val trace_ring : t -> Repro_observe.Trace.t
(** This machine's own event ring: engine events plus the request
    lifecycle ([req:begin]/[req:end]/[req:retry]/[req:verdict] in the
    [Request] category, request id in [a]) and supervision events
    ([Fleet] category: crashes, demotions, death, backoff delays,
    restarts — a machine writes no other ring), timestamped on the monotone {!work_insns}
    clock. Always on; ring overflow advances its drop counter (the
    fleet report exposes both). *)

val scope : t -> Repro_perfscope.Scope.t
(** This machine's performance scope (always attached): per-phase
    host-insn totals, monotone across restores — the cost signature
    the anomaly detector compares across the fleet. *)

val latency : t -> Repro_perfscope.Histo.t
(** Serve latencies recorded by this machine: net retired insns for
    [Served], the policy deadline for [Timed_out]. The fleet-level
    histogram is exactly the merge of the per-machine ones. *)

val work_insns : t -> int
(** The machine's monotone work clock: cumulative retired guest
    instructions across every attempt, continuous across restores
    (a restore takes zero work time, rather than rewinding). The
    timestamp domain of {!trace_ring}. *)

val backoff_total : t -> int
(** Accumulated modeled restart delay, in guest insns. *)

val served : t -> int
val timeouts : t -> int

val wrong_results : t -> int
(** Halts whose code or UART digest failed verification. *)

val surfaced_crashes : t -> int
(** Surfaced livelocks plus corrupt-checkpoint restores. *)
