module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Parfleet = Repro_parallel.Parfleet

(* Self-healing fleet tests: backoff and health-ladder unit behavior,
   then whole-fleet drills exercising crash-only restarts, deadlines,
   the circuit breaker and same-seed determinism. *)

let target = 60_000
let warm = 4_000

(* A gcc build of [target] insns booted fault-free to [warm] insns and
   snapshotted: the base every fleet machine serves from. *)
let warm_base ~warm =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let inject = Fi.create ~seed:1 ~rate:0.0 ~behavior:Fi.Surface () in
  let sys =
    D.System.create ~inject ~shadow_depth:4 ~quarantine_threshold:2
      (D.System.Rules D.Opt.full)
  in
  K.load image (fun b words -> D.System.load_image sys b words);
  match
    (D.System.run ~max_guest_insns:warm ~checkpoint_every:warm sys)
      .T.Engine.reason
  with
  | `Insn_limit -> D.System.snapshot sys
  | _ -> Alcotest.fail "warm boot did not reach the instruction limit"

(* One warm base snapshot shared by every test (building it runs the
   boot + warm phase once; tests only restore). *)
let base = lazy (warm_base ~warm)

let policy =
  {
    Res.Supervisor.default_policy with
    Res.Supervisor.deadline = 10 * target;
    checkpoint_every = 2_000;
    retry_budget = 3;
  }

let chaos_plan ?(machines = 3) ?(faulty = 1) ~seed () =
  Fi.Plan.make ~seed ~machines ~faulty
    [
      (Fi.Bus_read, 0.0002);
      (Fi.Bus_write, 0.0002);
      (Fi.Tb_flush, 0.0001);
      (Fi.Rule_corrupt, 0.05);
    ]

(* ---- backoff ---- *)

let test_backoff_deterministic () =
  let seq seed =
    let b = Res.Backoff.create ~base:1_000 ~cap:50_000 ~seed () in
    List.init 12 (fun _ -> Res.Backoff.next b)
  in
  Alcotest.(check (list int)) "same seed, same delays" (seq 9) (seq 9);
  Alcotest.(check bool) "different seed, different delays" true (seq 9 <> seq 10)

let test_backoff_window () =
  let b = Res.Backoff.create ~base:1_000 ~cap:50_000 ~seed:3 () in
  for attempt = 0 to 19 do
    let raw = min 50_000 (1_000 * (1 lsl min attempt 10)) in
    let d = Res.Backoff.next b in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d delay %d within [%d,%d]" attempt d (raw / 2) raw)
      true
      (d >= raw / 2 && d <= raw)
  done;
  let total = Res.Backoff.total b in
  Alcotest.(check bool) "total accumulates" true (total > 0);
  Res.Backoff.reset b;
  let d = Res.Backoff.next b in
  Alcotest.(check bool) "reset returns to the first window" true
    (d >= 500 && d <= 1_000);
  Alcotest.(check bool) "total survives reset" true
    (Res.Backoff.total b = total + d)

(* ---- health ladder ---- *)

let test_health_ladder () =
  let h = Res.Health.create ~degrade_after:1 ~quarantine_after:3 () in
  Alcotest.(check bool) "starts serving" true (Res.Health.serving h);
  let s = Res.Health.note h Res.Health.Deadline_timeout in
  Alcotest.(check string) "first strike degrades" "degraded"
    (Res.Health.state_name s);
  ignore (Res.Health.note h Res.Health.Watchdog_recovered);
  let s = Res.Health.note h Res.Health.Crash in
  Alcotest.(check string) "third strike quarantines" "quarantined"
    (Res.Health.state_name s);
  Alcotest.(check bool) "quarantined does not serve" false (Res.Health.serving h);
  Alcotest.(check bool) "quarantined is alive" true (Res.Health.alive h);
  let s = Res.Health.note_restart_ok h in
  Alcotest.(check string) "restart lifts back to degraded" "degraded"
    (Res.Health.state_name s);
  Alcotest.(check int) "crash count" 1 (Res.Health.crashes h);
  Alcotest.(check int) "restart count" 1 (Res.Health.restarts h);
  (* strikes re-armed at degrade_after: two more reach the threshold *)
  ignore (Res.Health.note h Res.Health.Crash);
  let s = Res.Health.note h Res.Health.Crash in
  Alcotest.(check string) "re-quarantines after re-arm" "quarantined"
    (Res.Health.state_name s);
  Res.Health.kill h;
  Alcotest.(check bool) "dead is absorbing" false
    (Res.Health.alive h || Res.Health.serving h);
  ignore (Res.Health.note_restart_ok h);
  Alcotest.(check string) "no resurrection" "dead"
    (Res.Health.state_name (Res.Health.state h))

(* ---- supervisor ---- *)

let test_supervisor_serves_clean () =
  let s =
    Res.Supervisor.create ~id:0 ~policy (Lazy.force base)
  in
  let fleet_config = { Res.Fleet.machines = 1; min_healthy = 0; policy } in
  let f = Res.Fleet.create ~config:fleet_config (Lazy.force base) in
  let reference = Res.Fleet.reference f in
  (match Res.Supervisor.serve ~reference s ~request:0 () with
  | Res.Supervisor.Served { attempts; _ } ->
    Alcotest.(check int) "clean serve needs one attempt" 1 attempts
  | o -> Alcotest.fail ("expected Served, got " ^ Res.Supervisor.outcome_name o));
  (match Res.Supervisor.serve ~reference s ~request:1 () with
  | Res.Supervisor.Served _ -> ()
  | o -> Alcotest.fail ("expected Served, got " ^ Res.Supervisor.outcome_name o));
  Alcotest.(check string) "still healthy" "healthy"
    (Res.Health.state_name (Res.Health.state (Res.Supervisor.health s)))

let test_supervisor_deadline () =
  (* a deadline shorter than the workload remainder must surface as
     the typed Timed_out outcome, not a crash or a hang *)
  let tight = { policy with Res.Supervisor.deadline = 1_000 } in
  let s = Res.Supervisor.create ~id:0 ~policy:tight (Lazy.force base) in
  (match Res.Supervisor.serve s ~request:0 () with
  | Res.Supervisor.Timed_out -> ()
  | o ->
    Alcotest.fail ("expected Timed_out, got " ^ Res.Supervisor.outcome_name o));
  Alcotest.(check int) "timeout recorded" 1 (Res.Supervisor.timeouts s);
  Alcotest.(check string) "one strike degrades" "degraded"
    (Res.Health.state_name (Res.Health.state (Res.Supervisor.health s)))

(* ---- fleet ---- *)

let drill ~seed ~machines ~faulty ~requests =
  let plan = chaos_plan ~machines ~faulty ~seed () in
  let f =
    Res.Fleet.create ~plan
      ~config:{ Res.Fleet.machines; min_healthy = 1; policy }
      (Lazy.force base)
  in
  Parfleet.run f ~domains:1 ~requests;
  ignore (Res.Fleet.final_verify f);
  f

let test_fleet_chaos_drill () =
  let f = drill ~seed:7 ~machines:3 ~faulty:1 ~requests:9 in
  Alcotest.(check int) "every request accounted for" 9
    (Res.Fleet.served_ok f + Res.Fleet.timed_out f + Res.Fleet.shed f
    + Res.Fleet.failed f);
  Alcotest.(check bool) "chaos forced restarts" true (Res.Fleet.restarts f > 0);
  Alcotest.(check bool) "restarts accumulated modeled backoff" true
    (Res.Fleet.backoff_insns f > 0);
  Alcotest.(check bool) "fleet survived" true (Res.Fleet.alive_count f > 0);
  Alcotest.(check bool) "healthy majority kept serving" true
    (Res.Fleet.served_ok f >= 6);
  Alcotest.(check bool) "survivors reproduce the fault-free reference" true
    (Res.Fleet.final_verify f)

let test_fleet_deterministic () =
  let m f = Res.Fleet.metrics_json f in
  let a = m (drill ~seed:11 ~machines:3 ~faulty:1 ~requests:6) in
  let b = m (drill ~seed:11 ~machines:3 ~faulty:1 ~requests:6) in
  Alcotest.(check string) "same seed, byte-identical metrics" a b;
  let c = m (drill ~seed:12 ~machines:3 ~faulty:1 ~requests:6) in
  Alcotest.(check bool) "different seed, different drill" true (a <> c)

let test_fleet_breaker_broadcast () =
  let f =
    Res.Fleet.create
      ~config:{ Res.Fleet.machines = 3; min_healthy = 1; policy }
      (Lazy.force base)
  in
  (* simulate machine 0's shadow verification quarantining a rule
     locally, then let the breaker sweep (which runs at the barrier
     after machine 0 serves) broadcast it *)
  let rs_of i =
    match (Res.Supervisor.machine (Res.Fleet.supervisor f i)).D.System.ruleset with
    | Some rs -> rs
    | None -> Alcotest.fail "rules-mode machine has a ruleset"
  in
  let victim = (List.hd (R.Ruleset.rules (rs_of 0))).R.Rule.id in
  Alcotest.(check bool) "local quarantine installs" true
    (R.Ruleset.quarantine_by_id (rs_of 0) victim);
  let served i = Res.Supervisor.served (Res.Fleet.supervisor f i) in
  Parfleet.run f ~domains:1 ~requests:1;
  Alcotest.(check (list int)) "machine 0 served the first request"
    [ 1; 0; 0 ] (List.init 3 served);
  Alcotest.(check int) "one breaker trip" 1 (Res.Fleet.breaker_trips f);
  for i = 1 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "machine %d inherited the quarantine" i)
      [ victim ]
      (R.Ruleset.quarantined_ids (rs_of i))
  done;
  (* the broadcast must not break the other machines: they still serve
     and still match the reference. Each run restarts the rotation, so
     the next two requests go to machines 0 and 1 *)
  Parfleet.run f ~domains:1 ~requests:2;
  Alcotest.(check (list int))
    "machine 1 served under the broadcast quarantine" [ 2; 1; 0 ]
    (List.init 3 served);
  Alcotest.(check int) "every request served" 3 (Res.Fleet.served_ok f);
  Alcotest.(check int) "still one breaker trip" 1 (Res.Fleet.breaker_trips f);
  Alcotest.(check bool) "survivors verify clean" true (Res.Fleet.final_verify f)

let test_fleet_admission_control () =
  let f =
    Res.Fleet.create
      ~config:{ Res.Fleet.machines = 2; min_healthy = 2; policy }
      (Lazy.force base)
  in
  let served i = Res.Supervisor.served (Res.Fleet.supervisor f i) in
  Parfleet.run f ~domains:1 ~requests:1;
  Alcotest.(check int) "full fleet must not shed" 0 (Res.Fleet.shed f);
  Alcotest.(check (list int)) "machine 0 served" [ 1; 0 ] (List.init 2 served);
  (* kill one machine: serving drops below min_healthy, requests shed *)
  Res.Health.kill (Res.Supervisor.health (Res.Fleet.supervisor f 0));
  Parfleet.run f ~domains:1 ~requests:1;
  Alcotest.(check (list int)) "under-strength fleet must shed" [ 1; 0 ]
    (List.init 2 served);
  Alcotest.(check int) "shed counted" 1 (Res.Fleet.shed f);
  Alcotest.(check int) "alive count sees the death" 1 (Res.Fleet.alive_count f)

(* Plan 2569 of the benchmark's fleet workload (its base, rates and
   policy): a bus-read fault sends the faulty machine's guest into the
   data-abort panic, and the clean checkpoint taken just after it must
   not become the restart point, or every retry replays the panic
   until the machine dies. *)
let test_restart_point_untouched () =
  let policy =
    {
      policy with
      Res.Supervisor.checkpoint_every = 2_000;
      retry_budget = 8;
      shadow_depth = 4;
    }
  in
  let plan =
    Fi.Plan.make ~seed:2569 ~machines:4 ~faulty:1
      [
        (Fi.Bus_read, 0.00005);
        (Fi.Bus_write, 0.00005);
        (Fi.Tb_flush, 0.00005);
        (Fi.Rule_corrupt, 0.002);
      ]
  in
  let f =
    Res.Fleet.create ~plan
      ~config:{ Res.Fleet.machines = 4; min_healthy = 1; policy }
      (warm_base ~warm:20_000)
  in
  Parfleet.run f ~domains:1 ~requests:8;
  Alcotest.(check bool) "the faulty machine restarted" true
    (Res.Fleet.restarts f > 0);
  Alcotest.(check int) "every request served" 8 (Res.Fleet.served_ok f);
  Alcotest.(check int) "no machine died" 4 (Res.Fleet.alive_count f);
  Alcotest.(check bool) "survivors reproduce the fault-free reference" true
    (Res.Fleet.final_verify f)

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "backoff: deterministic from seed" `Quick
          test_backoff_deterministic;
        Alcotest.test_case "backoff: jittered exponential window" `Quick
          test_backoff_window;
        Alcotest.test_case "health: ladder transitions" `Quick test_health_ladder;
        Alcotest.test_case "supervisor: serves verified requests" `Slow
          test_supervisor_serves_clean;
        Alcotest.test_case "supervisor: deadline is a typed timeout" `Slow
          test_supervisor_deadline;
        Alcotest.test_case "fleet: chaos drill self-heals" `Slow
          test_fleet_chaos_drill;
        Alcotest.test_case "fleet: same-seed drills are byte-identical" `Slow
          test_fleet_deterministic;
        Alcotest.test_case "fleet: circuit breaker broadcasts quarantine" `Slow
          test_fleet_breaker_broadcast;
        Alcotest.test_case "fleet: admission control sheds under-strength" `Slow
          test_fleet_admission_control;
        Alcotest.test_case "fleet: restart points no fault has touched" `Slow
          test_restart_point_untouched;
      ] );
  ]
