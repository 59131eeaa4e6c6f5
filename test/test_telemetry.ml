module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Obs = Repro_observe
module Jsonx = Obs.Jsonx
module Histo = Repro_perfscope.Histo
module Tel = Repro_telemetry
module Parfleet = Repro_parallel.Parfleet

(* Fleet observability tests: histogram merge semantics, JSON
   round-tripping of telemetry documents, the observational-identity
   invariant (a collector changes nothing), anomaly detection against
   fault-injection ground truth, SLO evaluation, and the merged
   Perfetto export. *)

let target = 60_000
let warm = 4_000

(* One warm base snapshot shared by every test in this module. *)
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

(* Run one chaos drill; with [collect], a telemetry collector ticks
   after every request (exactly how dbt_fleet drives it). *)
let drill ?(machines = 3) ?(faulty = 1) ?(requests = 9) ~seed ~collect () =
  let plan = chaos_plan ~machines ~faulty ~seed () in
  let fleet =
    Res.Fleet.create ~plan
      ~config:{ Res.Fleet.machines; min_healthy = 1; policy }
      (Lazy.force base)
  in
  let collector =
    if collect then Some (Tel.Collector.create ~every:3 fleet) else None
  in
  (match collector with
  | Some c ->
    Parfleet.run fleet ~domains:1
      ~after_each:(fun () -> Tel.Collector.tick c)
      ~requests;
    Tel.Collector.finish c
  | None -> Parfleet.run fleet ~domains:1 ~requests);
  ignore (Res.Fleet.final_verify fleet);
  (fleet, collector, plan)

(* ---- Histo.merge ---- *)

(* Deterministic pseudo-random sample streams without any PRNG state. *)
let samples seed n =
  List.init n (fun i ->
      let h = (((i + 1) * 2654435761) + (seed * 40503)) land 0xFFFFFF in
      h mod 200_000)

let test_histo_merge_concat () =
  let streams = [ samples 1 500; samples 2 173; samples 3 0; samples 4 61 ] in
  let parts =
    List.map
      (fun s ->
        let h = Histo.create () in
        List.iter (Histo.record h) s;
        h)
      streams
  in
  let concat = Histo.create () in
  List.iter (List.iter (Histo.record concat)) streams;
  let merged = Histo.create () in
  List.iter (fun p -> Histo.merge ~into:merged p) parts;
  Alcotest.(check string)
    "merge of N == histogram of concatenated samples" (Histo.to_json concat)
    (Histo.to_json merged);
  (* merge order is irrelevant *)
  let merged_rev = Histo.create () in
  List.iter (fun p -> Histo.merge ~into:merged_rev p) (List.rev parts);
  Alcotest.(check string)
    "merge is order-insensitive" (Histo.to_json merged)
    (Histo.to_json merged_rev);
  (* quantiles of the merge are the quantiles of the union *)
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g deterministic" p)
        (Histo.percentile concat p) (Histo.percentile merged p))
    [ 50.; 90.; 99.; 100. ];
  (* src histograms are unchanged by the merge *)
  Alcotest.(check string)
    "src unchanged"
    (Histo.to_json (List.hd parts))
    (let h = Histo.create () in
     List.iter (Histo.record h) (List.hd streams);
     Histo.to_json h)

(* Associativity: the grouping of merges never matters. The fleet
   derives its histogram by folding machine histograms left-to-right;
   the telemetry layer merges per-machine then fleet-wide — both
   groupings must agree bucket-for-bucket. *)
let test_histo_merge_assoc () =
  let mk s =
    let h = Histo.create () in
    List.iter (Histo.record h) s;
    h
  in
  let sa = samples 5 321 and sb = samples 6 87 and sc = samples 7 144 in
  (* left fold: (a + b) + c *)
  let left = mk sa in
  Histo.merge ~into:left (mk sb);
  Histo.merge ~into:left (mk sc);
  (* right fold: a + (b + c) *)
  let bc = mk sb in
  Histo.merge ~into:bc (mk sc);
  let right = mk sa in
  Histo.merge ~into:right bc;
  Alcotest.(check string)
    "merge is associative" (Histo.to_json left) (Histo.to_json right);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%g agrees across groupings" p)
        (Histo.percentile left p) (Histo.percentile right p))
    [ 50.; 90.; 99.; 100. ]

(* ---- Jsonx round-trip ---- *)

let test_jsonx_roundtrip_telemetry () =
  let _, collector, _ = drill ~seed:42 ~collect:true () in
  let doc = Tel.Collector.to_json (Option.get collector) in
  let v = Jsonx.parse doc in
  (* parse . render is the identity on parsed values *)
  Alcotest.(check bool)
    "parse (render v) = v" true
    (Jsonx.parse (Jsonx.render v) = v);
  (* and render . parse . render is render (stable re-rendering) *)
  Alcotest.(check string)
    "render is stable" (Jsonx.render v)
    (Jsonx.render (Jsonx.parse (Jsonx.render v)));
  (* a nasty nested document with every value shape *)
  let nasty =
    Jsonx.obj
      [
        ("s", Jsonx.str "q\"uote\\back\nslash\twith \xe2\x82\xac utf8");
        ("i", Jsonx.int (-123456789));
        ("f", Jsonx.float 0.001953125);
        ("b", Jsonx.bool false);
        ("n", "null");
        ("a", Jsonx.arr [ Jsonx.obj [ ("deep", Jsonx.arr [ Jsonx.int 1 ]) ] ]);
        ("empty_obj", Jsonx.obj []);
        ("empty_arr", Jsonx.arr []);
      ]
  in
  let nv = Jsonx.parse nasty in
  Alcotest.(check bool)
    "nested round-trip" true
    (Jsonx.parse (Jsonx.render nv) = nv)

(* ---- observational identity ---- *)

let test_collector_is_observational () =
  let fleet_a, collector, _ = drill ~seed:42 ~collect:true () in
  let fleet_b, _, _ = drill ~seed:42 ~collect:false () in
  Alcotest.(check string)
    "drill report identical with and without a collector"
    (Res.Fleet.metrics_json fleet_b)
    (Res.Fleet.metrics_json fleet_a);
  (* and the telemetry document itself is a same-seed invariant *)
  let _, collector2, _ = drill ~seed:42 ~collect:true () in
  Alcotest.(check string)
    "telemetry document deterministic"
    (Tel.Collector.to_json (Option.get collector))
    (Tel.Collector.to_json (Option.get collector2))

(* ---- anomaly detection ---- *)

let test_anomaly_flags_faulty () =
  let fleet, collector, plan = drill ~seed:42 ~collect:true () in
  ignore collector;
  let signatures =
    List.init (Res.Fleet.machines fleet) (fun i ->
        let s = Res.Fleet.supervisor fleet i in
        ( Repro_perfscope.Scope.phase_vector (Res.Supervisor.scope s),
          Histo.sum (Res.Supervisor.latency s) ))
  in
  let scores = Tel.Anomaly.scores signatures in
  let faulty = Fi.Plan.faulty_machines plan in
  Alcotest.(check (list int))
    "every fault-injected machine is flagged" faulty
    (Tel.Anomaly.flagged ~threshold:Tel.Collector.default_threshold scores);
  (match Tel.Anomaly.top scores with
  | Some top ->
    Alcotest.(check bool)
      "top scorer is fault-injected" true (List.mem top faulty)
  | None -> Alcotest.fail "no top scorer");
  (* deterministic across same-seed drills *)
  let fleet2, _, _ = drill ~seed:42 ~collect:false () in
  let signatures2 =
    List.init (Res.Fleet.machines fleet2) (fun i ->
        let s = Res.Fleet.supervisor fleet2 i in
        ( Repro_perfscope.Scope.phase_vector (Res.Supervisor.scope s),
          Histo.sum (Res.Supervisor.latency s) ))
  in
  Alcotest.(check (list (float 0.)))
    "scores deterministic" scores
    (Tel.Anomaly.scores signatures2)

let test_anomaly_math () =
  (* median is robust: one wild row does not move it *)
  let rows = [ [| 1.; 2. |]; [| 1.; 2. |]; [| 100.; 0. |] ] in
  Alcotest.(check (array (float 0.)))
    "lower median ignores the outlier" [| 1.; 2. |] (Tel.Anomaly.median rows);
  (* Canberra distance is bounded by the dimension count *)
  let d = Tel.Anomaly.distance [| 0.; 5.; 1. |] [| 9.; 0.; 1. |] in
  Alcotest.(check (float 1e-9)) "bounded per dimension" 2.0 d;
  Alcotest.(check (float 1e-9))
    "identical vectors at distance 0" 0.
    (Tel.Anomaly.distance [| 3.; 4. |] [| 3.; 4. |]);
  (* rates normalize by useful work, clamped at 1 *)
  Alcotest.(check (array (float 1e-9)))
    "rates" [| 2.; 0.5 |]
    (Tel.Anomaly.rates ~useful:2 [| 4; 1 |]);
  Alcotest.(check (array (float 1e-9)))
    "zero useful clamps" [| 4.; 1. |]
    (Tel.Anomaly.rates ~useful:0 [| 4; 1 |])

(* ---- SLO evaluation ---- *)

let test_slo () =
  let fleet, _, _ = drill ~seed:42 ~collect:false () in
  (* a generous budget is clean *)
  let clean =
    Tel.Slo.of_json
      (Jsonx.parse
         {|{"availability_min": 0.1, "breaker_trips_max": 1000,
            "deadline_miss_rate_max": 1.0,
            "p99_latency_max": 99000000}|})
  in
  let objectives = Tel.Slo.evaluate clean fleet in
  Alcotest.(check int) "all four objectives evaluated" 4
    (List.length objectives);
  Alcotest.(check bool) "clean budget" false (Tel.Slo.burned objectives);
  (* an impossible availability floor burns *)
  let strict =
    Tel.Slo.of_json (Jsonx.parse {|{"availability_min": 1.1}|})
  in
  let burned = Tel.Slo.evaluate strict fleet in
  Alcotest.(check bool) "burned budget" true (Tel.Slo.burned burned);
  (* the report round-trips and carries the verdict *)
  let report = Jsonx.parse (Tel.Slo.report_json burned) in
  Alcotest.(check bool)
    "report burned flag" true
    (Jsonx.member "burned" report = Some (Jsonx.Bool true));
  (* unknown keys are a hard error *)
  (match Tel.Slo.of_json (Jsonx.parse {|{"availabilty_min": 0.9}|}) with
  | _ -> Alcotest.fail "typo'd SLO key must raise"
  | exception Tel.Slo.Slo_error _ -> ());
  match Tel.Slo.of_json (Jsonx.parse {|[1]|}) with
  | _ -> Alcotest.fail "non-object SLO must raise"
  | exception Tel.Slo.Slo_error _ -> ()

(* ---- fleet latency == merge of per-machine latencies ---- *)

let test_fleet_latency_is_merge () =
  let fleet, _, _ = drill ~seed:42 ~collect:false () in
  let merged = Histo.create () in
  for i = 0 to Res.Fleet.machines fleet - 1 do
    Histo.merge ~into:merged
      (Res.Supervisor.latency (Res.Fleet.supervisor fleet i))
  done;
  Alcotest.(check string)
    "fleet latency histogram == merge of per-machine histograms"
    (Histo.to_json (Res.Fleet.latency fleet))
    (Histo.to_json merged)

(* ---- request tracing and the merged Perfetto export ---- *)

let test_request_trace_and_chrome_streams () =
  let fleet, _, _ = drill ~seed:42 ~collect:false () in
  (* the fleet ring carries assignments; each machine ring carries the
     request lifecycle on its own track *)
  let count ring pred =
    let n = ref 0 in
    Obs.Trace.iter ring (fun e -> if pred e then incr n);
    !n
  in
  let assigns =
    count (Res.Fleet.trace fleet) (fun e ->
        e.Obs.Trace.cat = Obs.Trace.Request && e.Obs.Trace.name = "req:assign")
  in
  Alcotest.(check bool) "fleet ring has req:assign events" true (assigns > 0);
  (* single writer: the fleet ring holds exactly one dispatch verdict
     per offered request and no supervision event — those ride the
     machine rings only *)
  let dispatched = ref [] in
  Obs.Trace.iter (Res.Fleet.trace fleet) (fun e ->
      if e.Obs.Trace.name = "req:assign" || e.Obs.Trace.name = "req:shed" then
        dispatched := e.Obs.Trace.a :: !dispatched);
  Alcotest.(check (list int)) "one req:assign/req:shed per offered request"
    (List.init (Res.Fleet.offered fleet) Fun.id)
    (List.sort compare !dispatched);
  let supervision (e : Obs.Trace.event) =
    let prefix p =
      String.length e.name >= String.length p
      && String.sub e.name 0 (String.length p) = p
    in
    List.mem e.name [ "restart"; "backoff"; "timeout"; "dead" ]
    || prefix "crash:" || prefix "degrade:"
  in
  Alcotest.(check int) "fleet ring holds no supervision event" 0
    (count (Res.Fleet.trace fleet) supervision);
  let lifecycle = ref 0 in
  for i = 0 to Res.Fleet.machines fleet - 1 do
    let ring = Res.Supervisor.trace_ring (Res.Fleet.supervisor fleet i) in
    lifecycle :=
      !lifecycle
      + count ring (fun e ->
            e.Obs.Trace.cat = Obs.Trace.Request
            && (e.Obs.Trace.name = "req:begin" || e.Obs.Trace.name = "req:end"))
  done;
  Alcotest.(check bool) "machine rings carry req:begin/req:end" true
    (!lifecycle > 0);
  (* the merged export is one valid JSON document with one process per
     stream and balanced B/E slices *)
  let path = Filename.temp_file "repro_timeline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Trace.write_chrome_streams oc
        (("fleet", Res.Fleet.trace fleet)
        :: List.init (Res.Fleet.machines fleet) (fun i ->
               ( Printf.sprintf "machine%d" i,
                 Res.Supervisor.trace_ring (Res.Fleet.supervisor fleet i) )));
      close_out oc;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let v = Jsonx.parse text in
      let events =
        match Option.bind (Jsonx.member "traceEvents" v) Jsonx.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let ph p e =
        match Option.bind (Jsonx.member "ph" e) Jsonx.to_string with
        | Some x -> x = p
        | None -> false
      in
      let names =
        List.filter_map
          (fun e ->
            match Option.bind (Jsonx.member "name" e) Jsonx.to_string with
            | Some "process_name" -> Jsonx.member "args" e
            | _ -> None)
          events
        |> List.filter_map (fun a ->
               Option.bind (Jsonx.member "name" a) Jsonx.to_string)
      in
      Alcotest.(check bool) "fleet process present" true
        (List.mem "fleet" names);
      Alcotest.(check bool) "machine0 process present" true
        (List.mem "machine0" names);
      let begins = List.length (List.filter (ph "B") events) in
      let ends = List.length (List.filter (ph "E") events) in
      Alcotest.(check bool) "has request slices" true (begins > 0);
      (* the ring drops oldest-first and every end is emitted after its
         begin, so a retained begin always has its end; an end may have
         lost its begin to a drop *)
      Alcotest.(check bool) "every retained begin has an end" true
        (ends >= begins))

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "histo: merge == concat" `Quick
          test_histo_merge_concat;
        Alcotest.test_case "histo: merge is associative" `Quick
          test_histo_merge_assoc;
        Alcotest.test_case "jsonx: telemetry documents round-trip" `Quick
          test_jsonx_roundtrip_telemetry;
        Alcotest.test_case "collector is purely observational" `Slow
          test_collector_is_observational;
        Alcotest.test_case "anomaly detector flags the faulty machine" `Slow
          test_anomaly_flags_faulty;
        Alcotest.test_case "anomaly math: median, distance, rates" `Quick
          test_anomaly_math;
        Alcotest.test_case "slo: budgets burn deterministically" `Slow
          test_slo;
        Alcotest.test_case "fleet latency is the merge of machines" `Slow
          test_fleet_latency_is_merge;
        Alcotest.test_case "request tracing + merged perfetto export" `Slow
          test_request_trace_and_chrome_streams;
      ] );
  ]
