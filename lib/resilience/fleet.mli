(** Self-healing fleet: N supervised machines serving one workload
    from a shared warm snapshot, under deterministic chaos.

    The fleet adds the cross-machine policy on top of
    {!Supervisor}:

    - {e admission control}: a request is shed when fewer than
      [min_healthy] machines are willing to serve;
    - {e round-robin dispatch} over the serving machines, driven by
      [Repro_parallel.Parfleet.run] through the dispatch primitives
      below;
    - {e fleet-wide circuit breaker}: a translation rule quarantined
      on any machine (shadow verification caught it misfiring) is
      demoted on every other machine before it can misfire there too;
    - {e final verification}: after a drill, every surviving machine
      re-runs the workload with faults disarmed and must reproduce the
      fault-free reference bit-identically.

    Every number the fleet reports is a deterministic function of
    (fleet seed, base snapshot, request count) — {!metrics_json} from
    two same-seed drills diffs byte-for-byte. *)

type config = {
  machines : int;
  min_healthy : int;
      (** shed new requests when fewer machines are serving *)
  policy : Supervisor.policy;
}

type t

val create :
  ?plan:Repro_faultinject.Faultinject.Plan.t ->
  config:config ->
  Repro_snapshot.Snapshot.t ->
  t
(** Build the fleet from a warm base snapshot: first the fault-free
    reference run (a pristine machine, faults never armed), then one
    supervised machine per fleet slot. Raises [Invalid_argument] on a
    bad config, a plan sized for a different fleet, or a reference run
    that cannot complete within the policy deadline; raises
    [Snapshot.Corrupt] / [Snapshot.Load_error] on a damaged base.

    The fleet always keeps its own event ring on the request-counter
    clock — dispatch ([req:assign]/[req:shed] in the [Request]
    category), breaker and machine-death events — whether or not
    anyone exports it, so a drill's report is bit-identical with and
    without telemetry. Only the dispatching coordinator writes it;
    supervision events ride each machine's own ring. *)

(** {2 Dispatch primitives}

    Used by the fleet dispatcher ([Repro_parallel.Parfleet]), which
    computes outcomes on worker domains and then books them into the
    fleet on the coordinator, in request order — the offered counter
    (the fleet ring's clock), the ring events, the outcome counters —
    so the report stays a pure function of (seed, base, requests). *)

val min_healthy : t -> int

val serving_ids : t -> int list
(** Machine ids currently willing to serve, ascending — the epoch's
    serving set, fixed at the barrier. *)

val account_shed : t -> unit
(** Book one shed request: bump the offered/shed counters and emit
    [req:shed] on the fleet ring. *)

val account_assigned : t -> machine:int -> Supervisor.outcome -> unit
(** Book one request served by [machine]: bump the offered counter,
    emit [req:assign] on the fleet ring, count the outcome
    ([Rejected] counts as shed, [Gave_up] as failed plus a
    [machine-dead] event). The matching [req:assign] on the machine's
    own ring, emitted just before its serve, is the causal join key
    between the fleet timeline and the per-machine timelines. *)

val breaker_sweep_all : t -> unit
(** Run the fleet-wide circuit breaker over every machine in id order:
    a rule any machine quarantined is demoted on every other live
    machine. Run at the epoch barrier, when no machine is serving, so
    the broadcast order is a function of quarantine state alone. *)

val final_verify : t -> bool
(** Run {!Supervisor.verify_clean} on every machine; records the
    verdicts for {!metrics_json} and returns whether no surviving
    machine diverged. *)

val metrics_json : t -> string
(** The deterministic drill report (JSON object): aggregate counters,
    availability, restart/backoff totals, breaker trips, the latency
    histogram, boot-depot coverage ({!note_boot_depot}), and a
    per-machine breakdown (state, strikes, rung, quarantined rules,
    trace-ring total/dropped counts, depot coverage, final check).
    Volatile facts (wall-clock time) are deliberately excluded —
    callers add them under their own key. *)

val reference : t -> Supervisor.reference
val machines : t -> int
val supervisor : t -> int -> Supervisor.t

val trace : t -> Repro_observe.Trace.t
(** The fleet's own event ring (request-counter clock). Always on;
    see {!create}. *)

val latency : t -> Repro_perfscope.Histo.t
(** Fleet-wide serve-latency histogram, computed on demand as the
    bucket-wise merge of every machine's {!Supervisor.latency}
    ([Served] records net insns, [Timed_out] records the policy
    deadline, nothing else records). The fleet keeps no histogram of
    its own — one recording site, one merge path. *)

val note_boot_depot : t -> installed:int -> pending:int -> unit
(** Record the boot machine's AOT-depot coverage
    ({!Repro_dbt.System.depot_coverage}) for {!metrics_json}'s
    fleet-level ["depot"] object; defaults to [(0, 0)] (cold boot). *)

val serving_count : t -> int
val alive_count : t -> int
val offered : t -> int
val served_ok : t -> int
val timed_out : t -> int
val shed : t -> int
val failed : t -> int
val breaker_trips : t -> int
val restarts : t -> int
val backoff_insns : t -> int
val availability : t -> float
val quarantined_rules : t -> int list
(** Every rule id the fleet-wide circuit breaker demoted during the
    drill, sorted ascending. *)

val depot_writeback : t -> Repro_aotcache.Depot.t -> bool
(** Merge {!quarantined_rules} into [depot]'s persistent health
    section (see {!Repro_dbt.System.depot_quarantine_rules}). Returns
    [true] when the depot changed and is worth re-saving; raises
    {!Repro_aotcache.Depot.Depot_error} if its health section cannot
    be decoded. *)
