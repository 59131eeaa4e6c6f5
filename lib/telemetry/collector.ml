(* Fleet telemetry collector: interval samples of every machine's
   always-on observability surface, merged into one deterministic
   time-series document.

   Sampling rides the drill's own clock — the offered-request counter
   — via [Parfleet.run ~after_each], so the sample points of two
   same-seed drills line up exactly. Reading the surfaces (work clock,
   scope, Stats, trace counters, depot coverage) never perturbs them:
   a drill with a collector attached reports byte-identically to one
   without. Two counter families are exposed per machine, because they
   behave differently across supervision restores:

   - "work" counters (work clock, scope phase totals) are monotone —
     a restore takes zero work time — so their interval deltas are the
     cost story;
   - "stats" counters are the machine's point-in-time Stats record,
     which restores rewind; they are snapshots, not rates. *)

module D = Repro_dbt
module Stats = Repro_x86.Stats
module Trace = Repro_observe.Trace
module Jsonx = Repro_observe.Jsonx
module Scope = Repro_perfscope.Scope
module Histo = Repro_perfscope.Histo
module Phase = Repro_perfscope.Phase
module Fleet = Repro_resilience.Fleet
module Supervisor = Repro_resilience.Supervisor
module Health = Repro_resilience.Health
module CovR = Repro_covscope.Report
module CovA = Repro_covscope.Attr

type prev = { mutable work : int; mutable phases : int array }

type t = {
  fleet : Fleet.t;
  every : int;
  prev : prev array;  (* last-sample values, for interval deltas *)
  mutable samples : string list;  (* rendered sample objects, newest first *)
  mutable last_at : int;  (* offered count of the newest sample; -1 = none *)
}

let create ?(every = 4) fleet =
  if every <= 0 then invalid_arg "Collector.create: every <= 0";
  {
    fleet;
    every;
    prev =
      Array.init (Fleet.machines fleet) (fun _ ->
          { work = 0; phases = Array.make Phase.n 0 });
    samples = [];
    last_at = -1;
  }

let phases_obj v =
  Jsonx.obj (List.map (fun p -> (Phase.name p, Jsonx.int v.(Phase.index p))) Phase.all)

let stats_obj (st : Stats.t) =
  Jsonx.obj
    [
      ("guest_insns", Jsonx.int st.Stats.guest_insns);
      ("host_insns", Jsonx.int st.Stats.host_insns);
      ("sync_ops", Jsonx.int st.Stats.sync_ops);
      ("tb_translations", Jsonx.int st.Stats.tb_translations);
      ("shadow_replays", Jsonx.int st.Stats.shadow_replays);
      ("shadow_divergences", Jsonx.int st.Stats.shadow_divergences);
      ("livelocks_recovered", Jsonx.int st.Stats.livelocks_recovered);
    ]

let machine_sample t i =
  let s = Fleet.supervisor t.fleet i in
  let m = Supervisor.machine s in
  let prev = t.prev.(i) in
  let work = Supervisor.work_insns s in
  let phases = Scope.phase_vector (Supervisor.scope s) in
  let phase_delta =
    Array.init Phase.n (fun d -> phases.(d) - prev.phases.(d))
  in
  let ring = Supervisor.trace_ring s in
  let installed, pending = D.System.depot_coverage m in
  let json =
    Jsonx.obj
      [
        ("id", Jsonx.int i);
        ("health",
         Jsonx.str (Health.state_name (Health.state (Supervisor.health s))));
        ("work_insns", Jsonx.int work);
        ("work_delta", Jsonx.int (work - prev.work));
        ("phases", phases_obj phases);
        ("phase_delta", phases_obj phase_delta);
        ("stats", stats_obj (D.System.stats m));
        ("served", Jsonx.int (Supervisor.served s));
        ("timeouts", Jsonx.int (Supervisor.timeouts s));
        ("restarts", Jsonx.int (Health.restarts (Supervisor.health s)));
        ("depot",
         Jsonx.obj
           [
             ("installed", Jsonx.int installed);
             ("pending", Jsonx.int pending);
           ]);
        ("trace",
         Jsonx.obj
           [
             ("total", Jsonx.int (Trace.total ring));
             ("dropped", Jsonx.int (Trace.dropped ring));
           ]);
      ]
  in
  prev.work <- work;
  prev.phases <- phases;
  json

let sample t =
  let machines =
    List.init (Fleet.machines t.fleet) (fun i -> machine_sample t i)
  in
  let json =
    Jsonx.obj
      [
        ("at", Jsonx.int (Fleet.offered t.fleet));
        ("serving", Jsonx.int (Fleet.serving_count t.fleet));
        ("served_ok", Jsonx.int (Fleet.served_ok t.fleet));
        ("timed_out", Jsonx.int (Fleet.timed_out t.fleet));
        ("shed", Jsonx.int (Fleet.shed t.fleet));
        ("breaker_trips", Jsonx.int (Fleet.breaker_trips t.fleet));
        ("machines", Jsonx.arr machines);
      ]
  in
  t.samples <- json :: t.samples;
  t.last_at <- Fleet.offered t.fleet

(* The [Parfleet.run ~after_each] hook: sample on every [every]-th
   offered request. *)
let tick t = if Fleet.offered t.fleet mod t.every = 0 then sample t

(* One drill-end sample, unless the last tick already landed there. *)
let finish t = if t.last_at <> Fleet.offered t.fleet then sample t

let default_threshold = 1.0

let signatures t =
  List.init (Fleet.machines t.fleet) (fun i ->
      let s = Fleet.supervisor t.fleet i in
      ( Scope.phase_vector (Supervisor.scope s),
        Histo.sum (Supervisor.latency s) ))

let anomaly_json ~threshold t =
  let scores = Anomaly.scores (signatures t) in
  Jsonx.obj
    [
      ("threshold", Jsonx.float threshold);
      ("scores", Jsonx.arr (List.map Jsonx.float scores));
      ("flagged",
       Jsonx.arr (List.map Jsonx.int (Anomaly.flagged ~threshold scores)));
      ("top",
       match Anomaly.top scores with
       | Some i -> Jsonx.int i
       | None -> "null");
    ]

(* Fleet-level translation quality: the pointwise merge of every
   machine's attribution table. Building the report re-asserts the
   tier partition invariant over the merged counts. *)
let coverage_json t =
  let src =
    CovR.merge
      (List.init (Fleet.machines t.fleet) (fun i ->
           CovR.of_stats
             (D.System.stats
                (Supervisor.machine (Fleet.supervisor t.fleet i)))))
  in
  let r = CovR.make src in
  Jsonx.obj
    ([
       ("guest_insns", Jsonx.int src.CovR.guest_insns);
       ("coverage", Jsonx.float (CovR.coverage r));
     ]
    @ List.filter_map
        (fun tr ->
          let c = r.CovR.tiers.(CovA.tier_index tr) in
          if c.CovR.n = 0 then None
          else
            Some
              ( CovA.tier_name tr,
                Jsonx.obj
                  [ ("insns", Jsonx.int c.CovR.n); ("cost", Jsonx.int c.CovR.cost) ]
              ))
        CovA.all_tiers)

let final_json ~threshold t =
  let machines =
    List.init (Fleet.machines t.fleet) (fun i ->
        let s = Fleet.supervisor t.fleet i in
        Jsonx.obj
          [
            ("id", Jsonx.int i);
            ("health",
             Jsonx.str (Health.state_name (Health.state (Supervisor.health s))));
            ("work_insns", Jsonx.int (Supervisor.work_insns s));
            ("phases", phases_obj (Scope.phase_vector (Supervisor.scope s)));
            ("latency", Histo.to_json (Supervisor.latency s));
          ])
  in
  Jsonx.obj
    [
      ("machines", Jsonx.arr machines);
      ("latency", Histo.to_json (Fleet.latency t.fleet));
      ("coverage", coverage_json t);
      ("anomaly", anomaly_json ~threshold t);
    ]

let to_json ?(threshold = default_threshold) t =
  Jsonx.obj
    [
      ("meta", Jsonx.str "fleet-telemetry");
      ("every", Jsonx.int t.every);
      ("machines", Jsonx.int (Fleet.machines t.fleet));
      ("samples", Jsonx.arr (List.rev t.samples));
      ("final", final_json ~threshold t);
    ]
