(** Fleet telemetry collector: per-machine interval samples merged
    into one deterministic time-series document.

    Attach with [Repro_parallel.Parfleet.run ~after_each:(fun () ->
    Collector.tick c)]: every [every]-th offered request the collector
    snapshots each machine's always-on observability surface — the
    monotone work clock and perfscope phase totals (with interval
    deltas), the point-in-time {!Repro_x86.Stats} counters (which
    supervision restores rewind — snapshots, not rates), serve/timeout
    /restart counts, depot coverage and trace-ring totals.

    Purely observational: reading the surfaces never perturbs them, so
    a drill with a collector attached reports byte-identically to one
    without. Sampling rides the offered-request counter, so two
    same-seed drills sample at exactly the same points and
    {!to_json} diffs byte-for-byte. *)

type t

val create : ?every:int -> Repro_resilience.Fleet.t -> t
(** [every] is the sampling interval in offered requests (default 4).
    Raises [Invalid_argument] when non-positive. *)

val tick : t -> unit
(** The [after_each] hook: takes a sample when the fleet's offered
    count is a multiple of [every]. *)

val sample : t -> unit
(** Take a sample unconditionally. *)

val finish : t -> unit
(** Take one drill-end sample, unless the last tick already sampled at
    the current offered count. *)

val default_threshold : float
(** Default anomaly threshold (1.0 of Canberra rate distance — well
    above healthy-fleet noise, well below a sabotaged machine's
    near-phase-count score). *)

val to_json : ?threshold:float -> t -> string
(** The telemetry document:
    [{"meta":"fleet-telemetry","every":..,"machines":..,
    "samples":[{at,serving,served_ok,timed_out,shed,breaker_trips,
    machines:[...]},...],
    "final":{machines:[{id,health,work_insns,phases,latency}],
    latency,coverage,anomaly:{threshold,scores,flagged,top}}}].
    The coverage section is the fleet-level merge of every machine's
    translation-quality attribution table
    ({!Repro_covscope.Report.merge}): merged rule+region coverage and
    per-tier retirement/cost totals.
    The anomaly section scores every machine's cost-rate signature
    (phase vector per useful guest insn) against the fleet median
    (see {!Anomaly}); [flagged] lists those above [threshold], [top]
    the highest scorer. *)
