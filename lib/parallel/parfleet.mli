(** The fleet dispatcher: serve a drill's requests across OCaml 5
    domains with a report that is byte-identical to the single-domain
    run. It is the only way a {!Repro_resilience.Fleet.t} serves.

    Machines are sharded over the domains by id; each epoch (the next
    [machines] requests) is assigned round-robin over the serving set
    fixed at the epoch barrier, served in parallel, then {e replayed}
    into the fleet's books on the coordinator in request order — the
    counters, the fleet-ring events, the [after_each] telemetry hook
    and the circuit-breaker sweep all advance deterministically,
    whatever the domain count or scheduling. See the implementation
    header for the full argument. *)

val run :
  ?after_each:(unit -> unit) ->
  ?domains:int ->
  Repro_resilience.Fleet.t ->
  requests:int ->
  unit
(** [run ~domains fleet ~requests] serves [requests] requests across
    [domains] domains (default 1 — same dispatcher, no spawns). The
    fleet's report ({!Repro_resilience.Fleet.metrics_json}) after this
    call is a pure function of (seed, base snapshot, requests) — the
    domain count never shows. The fleet ring is written only by the
    coordinator; supervision events ride the per-machine rings. Raises
    [Invalid_argument] when [domains < 1] or [requests < 0].

    [after_each] runs on the coordinator once per request, during the
    epoch replay — the telemetry collector's sampling hook observes
    end-of-epoch machine state at deterministic sample points.

    Callers may pass any [domains >= 1] regardless of
    [Domain.recommended_domain_count] — extra domains cost scheduling,
    never correctness. The [repro-dbt-fleet] CLI clamps, the library
    does not. *)
