module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Par = Repro_parallel
module Tel = Repro_telemetry
module Histo = Repro_perfscope.Histo
module CovR = Repro_covscope.Report
module Snapshot = Repro_snapshot.Snapshot

(* Domain-parallel dispatcher tests. The oracle throughout is
   byte-identity: a drill served across N domains must produce the
   same report, the same telemetry document and the same per-machine
   state as the single-domain run — parallelism is a scheduling
   choice, never an observable one. *)

let target = 60_000
let warm = 4_000

let base =
  lazy
    (let spec = W.find "gcc" in
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
     | _ -> Alcotest.fail "warm boot did not reach the instruction limit")

let policy =
  {
    Res.Supervisor.default_policy with
    Res.Supervisor.deadline = 10 * target;
    checkpoint_every = 2_000;
    retry_budget = 3;
  }

let chaos_plan ~machines ~faulty ~seed () =
  Fi.Plan.make ~seed ~machines ~faulty
    [
      (Fi.Bus_read, 0.0002);
      (Fi.Bus_write, 0.0002);
      (Fi.Tb_flush, 0.0001);
      (Fi.Rule_corrupt, 0.05);
    ]

(* One parallel drill: build a fresh fleet from the shared warm base,
   serve [requests] across [domains] with a telemetry collector
   attached, and return (fleet report, telemetry document). *)
let drill ?(base = Lazy.force base) ~seed ~machines ~faulty ~requests ~domains () =
  let plan = chaos_plan ~machines ~faulty ~seed () in
  let f =
    Res.Fleet.create ~plan ~config:{ Res.Fleet.machines; min_healthy = 1; policy } base
  in
  let collector = Tel.Collector.create ~every:4 f in
  Par.Parfleet.run f ~domains
    ~after_each:(fun () -> Tel.Collector.tick collector)
    ~requests;
  Tel.Collector.finish collector;
  let telemetry = Tel.Collector.to_json collector in
  ignore (Res.Fleet.final_verify f);
  (Res.Fleet.metrics_json f, telemetry)

(* ---- cross-domain identity ---- *)

(* Spawning domains works on any host (the scheduler multiplexes when
   cores are short), so this identity check runs unconditionally —
   even a 1-core CI runner exercises true multi-domain serving. *)
let test_identity_two_domains () =
  let m1, t1 = drill ~seed:11 ~machines:3 ~faulty:1 ~requests:9 ~domains:1 () in
  let m2, t2 = drill ~seed:11 ~machines:3 ~faulty:1 ~requests:9 ~domains:2 () in
  Alcotest.(check string) "2-domain report byte-identical to 1-domain" m1 m2;
  Alcotest.(check string) "2-domain telemetry byte-identical" t1 t2;
  let m3, _ = drill ~seed:11 ~machines:3 ~faulty:1 ~requests:9 ~domains:3 () in
  Alcotest.(check string) "3 domains (more domains than busy shards)" m1 m3

(* The full 4-domain chaos drill (the CI gate's shape: 4 machines,
   2 sabotaged). Skipped on 1-core runners per
   [Domain.recommended_domain_count] — the small unconditional test
   above still covers cross-domain identity there. *)
let test_identity_four_domain_chaos () =
  if Domain.recommended_domain_count () < 2 then
    Alcotest.skip ()
  else begin
    let m1, t1 = drill ~seed:7 ~machines:4 ~faulty:2 ~requests:12 ~domains:1 () in
    let m4, t4 = drill ~seed:7 ~machines:4 ~faulty:2 ~requests:12 ~domains:4 () in
    Alcotest.(check string) "4-domain chaos report byte-identical" m1 m4;
    Alcotest.(check string) "4-domain chaos telemetry byte-identical" t1 t4
  end

(* ---- snapshot source identity ---- *)

(* The warm base holds its code cache as values, so every restore from
   it installs that code as captured and every domain's machines share
   its programs; the same base read back from bytes re-translates its
   recipes on each restore. Which one a fleet serves from must not
   show in its report. *)
let test_identity_base_bytes () =
  let from_bytes = Snapshot.of_string (Snapshot.to_string (Lazy.force base)) in
  let m1, _ = drill ~seed:11 ~machines:3 ~faulty:1 ~requests:9 ~domains:2 () in
  let m2, _ =
    drill ~base:from_bytes ~seed:11 ~machines:3 ~faulty:1 ~requests:9 ~domains:1 ()
  in
  Alcotest.(check string) "a fleet on the base's bytes reports the same" m1 m2

let test_invalid_args () =
  let f =
    Res.Fleet.create
      ~config:{ Res.Fleet.machines = 1; min_healthy = 0; policy }
      (Lazy.force base)
  in
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Parfleet.run: domains < 1") (fun () ->
      Par.Parfleet.run f ~domains:0 ~requests:1);
  Alcotest.check_raises "negative requests rejected"
    (Invalid_argument "Parfleet.run: requests < 0") (fun () ->
      Par.Parfleet.run f ~domains:1 ~requests:(-1))

(* ---- merge commutativity ----

   The fleet-level latency histogram and coverage report are merges of
   per-machine state; machine order must not show in the result, or
   the merged report would depend on which domain finished first. *)

let test_histo_merge_commutes () =
  let mk records =
    let h = Histo.create () in
    List.iter (Histo.record h) records;
    h
  in
  let parts =
    [ mk [ 3; 70_000; 513 ]; mk [ 1; 1; 9_999 ]; mk [ 120; 64_000 ]; mk [] ]
  in
  let merged order =
    let into = Histo.create () in
    List.iter (fun i -> Histo.merge ~into (List.nth parts i)) order;
    Histo.to_json into
  in
  let reference = merged [ 0; 1; 2; 3 ] in
  List.iter
    (fun order ->
      Alcotest.(check string) "histogram merge is order-invariant" reference
        (merged order))
    [ [ 3; 2; 1; 0 ]; [ 1; 3; 0; 2 ]; [ 2; 0; 3; 1 ] ]

let test_coverage_merge_commutes () =
  (* real per-machine attribution tables from a drill, merged in
     permuted machine order *)
  let plan = chaos_plan ~machines:3 ~faulty:1 ~seed:11 () in
  let f =
    Res.Fleet.create ~plan
      ~config:{ Res.Fleet.machines = 3; min_healthy = 1; policy }
      (Lazy.force base)
  in
  Par.Parfleet.run f ~domains:2 ~requests:6;
  let src i =
    CovR.of_stats
      (D.System.stats (Res.Supervisor.machine (Res.Fleet.supervisor f i)))
  in
  let merged order =
    let s = CovR.merge (List.map src order) in
    CovR.to_json (CovR.make s)
  in
  let reference = merged [ 0; 1; 2 ] in
  List.iter
    (fun order ->
      Alcotest.(check string) "coverage merge is order-invariant" reference
        (merged order))
    [ [ 2; 1; 0 ]; [ 1; 0; 2 ]; [ 2; 0; 1 ] ]

(* ---- rule-id derivation ---- *)

let test_builtin_ids_positional () =
  let ids rules = List.map (fun r -> r.R.Rule.id) rules in
  let a = R.Builtin.all () in
  Alcotest.(check (list int))
    "builtin ids are 1..N by position"
    (List.init (List.length a) (fun i -> i + 1))
    (ids a);
  (* two rulesets built concurrently on separate domains: no shared
     counter, so both must see the exact same ids *)
  let d1 = Domain.spawn (fun () -> ids (R.Builtin.all ())) in
  let d2 = Domain.spawn (fun () -> ids (R.Builtin.all ())) in
  let b = Domain.join d1 and c = Domain.join d2 in
  Alcotest.(check (list int)) "concurrent build, identical ids" (ids a) b;
  Alcotest.(check (list int)) "both domains agree" b c

let test_learned_ids_positional () =
  let ids report =
    List.map (fun r -> r.R.Rule.id) report.Repro_learn.Learn.rules
  in
  let a = ids (Repro_learn.Learn.learn ()) in
  Alcotest.(check (list int))
    "learned ids are 1001..N by position, disjoint from builtin"
    (List.init (List.length a) (fun i -> 1001 + i))
    a;
  let b = ids (Repro_learn.Learn.learn ()) in
  Alcotest.(check (list int)) "relearning reproduces the ids" a b

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "parfleet: rejects bad arguments" `Slow
          test_invalid_args;
        Alcotest.test_case "parfleet: 2-domain report byte-identical" `Slow
          test_identity_two_domains;
        Alcotest.test_case "parfleet: a base from bytes serves identically" `Slow
          test_identity_base_bytes;
        Alcotest.test_case "parfleet: 4-domain chaos drill identity" `Slow
          test_identity_four_domain_chaos;
        Alcotest.test_case "histo: merge is order-invariant" `Quick
          test_histo_merge_commutes;
        Alcotest.test_case "covscope: merge is order-invariant" `Slow
          test_coverage_merge_commutes;
        Alcotest.test_case "builtin: rule ids derive from position" `Quick
          test_builtin_ids_positional;
        Alcotest.test_case "learn: rule ids derive from position" `Slow
          test_learned_ids_positional;
      ] );
  ]
