open Repro_arm
module Cov = Repro_covscope
module Attr = Cov.Attr
module Report = Cov.Report
module Stats = Repro_x86.Stats
module An = Repro_perfscope.Analysis
module Jsonx = Repro_observe.Jsonx
module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads

(* Translation-quality observatory tests.

   The opcode-class table is derived from the decoder's one
   instruction enumeration: [Insn.classify] is a wildcard-free match
   over [Insn.op], so adding a decoder variant without assigning it a
   coverage class fails to compile (warning 8 is an error in the dev
   profile). This suite pins the runtime half of that contract — the
   table is dense and invertible, every generable instruction lands
   inside it — plus the packed-attribution round-trip, the
   Stats-resident tier partition invariant under synthetic and real
   retirement streams, the per-rule payoff ledger's dead/negative
   flags, and the document-kind check every dbt_analyze subcommand
   runs on its input. *)

(* ---- 1. the class table is dense, invertible and total ---- *)

let test_class_table () =
  Alcotest.(check int) "n_classes = |all_classes|" Insn.n_classes
    (List.length Insn.all_classes);
  List.iteri
    (fun i cls ->
      Alcotest.(check int)
        (Insn.cls_name cls ^ " sits at its dense index")
        i (Insn.cls_index cls);
      Alcotest.(check bool)
        (Insn.cls_name cls ^ " index inverts")
        true
        (Insn.cls_of_index i = cls))
    Insn.all_classes;
  let names = List.map Insn.cls_name Insn.all_classes in
  Alcotest.(check int) "class names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* the packed word has room for the whole table *)
  Alcotest.(check bool) "class field wide enough" true (Insn.n_classes <= 128);
  Alcotest.(check bool) "idiom field wide enough" true (Insn.n_idioms <= 16)

let prop_classify_total =
  QCheck.Test.make ~count:2000
    ~name:"every generable instruction classifies inside the table"
    Gen.arbitrary_insn
    (fun insn ->
      let cls = Insn.classify insn in
      let ix = Insn.cls_index cls in
      let idiom = Insn.idiom_of insn in
      ix >= 0
      && ix < Insn.n_classes
      && Insn.cls_of_index ix = cls
      && idiom >= 0
      && idiom < Insn.n_idioms
      && String.length (Insn.cls_name cls) > 0
      && String.length (Insn.idiom_name cls idiom) > 0)

(* ---- 2. the packed attribution word round-trips ---- *)

let prop_attr_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"attribution words pack/unpack losslessly"
    (QCheck.pair Gen.arbitrary_insn
       (QCheck.pair
          (QCheck.int_bound (Attr.n_tiers - 1))
          (QCheck.int_bound 500)))
    (fun (insn, (tix, rule)) ->
      let tier = Attr.tier_of_index tix in
      let rule = if rule = 0 then None else Some (rule - 1) in
      let a = Attr.pack ~tier ?rule insn in
      Attr.tier a = tier
      && Attr.cls a = Insn.cls_index (Insn.classify insn)
      && Attr.idiom a = Insn.idiom_of insn
      && Attr.rule a = rule
      &&
      (* re-tiering (the helper-path repatch) preserves everything else *)
      let re = Attr.retier a Attr.Helper in
      Attr.tier re = Attr.Helper
      && Attr.cls re = Attr.cls a
      && Attr.idiom re = Attr.idiom a
      && Attr.rule re = Attr.rule a)

(* ---- 3. the partition invariant on a synthetic retirement stream ---- *)

(* [retire] charges host-insn cost to the previously retired
   instruction (the cost of an instruction accrues between its
   retirement and the next); the simulation mirrors the engine:
   retire, then accrue. *)
let sim st attr cost =
  Stats.retire st attr;
  st.Stats.host_insns <- st.Stats.host_insns + cost

let test_stats_partition_synthetic () =
  let st = Stats.create () in
  let a1 = Attr.pack_raw ~tier:Attr.Rule ~cls:3 ~idiom:1 ~rule:(Some 7) in
  let a2 = Attr.pack_raw ~tier:Attr.Baseline ~cls:3 ~idiom:1 ~rule:None in
  let a3 = Attr.pack_raw ~tier:Attr.Helper ~cls:9 ~idiom:0 ~rule:None in
  sim st a1 2;
  sim st a1 2;
  sim st a2 20;
  sim st a3 11;
  sim st a1 3;
  Alcotest.(check int) "every retirement counted exactly once" 5
    st.Stats.guest_insns;
  Alcotest.(check int) "cov table agrees with the retirement counter" 5
    (Stats.cov_retired st);
  let src = Report.of_stats st in
  Alcotest.(check (option string)) "tier partition holds" None
    (Report.partition_error src);
  (* attributed + residual accounts for every host instruction: the
     last accrual has no successor retirement to flush it *)
  Alcotest.(check int) "attributed + residual = host insns" st.Stats.host_insns
    (Stats.cov_attributed st + Stats.cov_residual st);
  Alcotest.(check int) "residual is the unflushed tail" 3 (Stats.cov_residual st);
  (* serialization: the attribution table snapshots bit-identically *)
  let arr = Stats.to_array st in
  let st2 = Stats.create () in
  Stats.load_array st2 arr;
  Alcotest.(check bool) "cov counters restore bit-identically" true
    (Stats.to_array st2 = arr);
  Alcotest.(check bool) "restored entries equal the originals" true
    (Stats.cov_entries st2 = Stats.cov_entries st);
  (* a broken partition is loudly rejected *)
  st.Stats.guest_insns <- st.Stats.guest_insns + 1;
  Alcotest.(check bool) "a broken partition is diagnosed" true
    (Report.partition_error (Report.of_stats st) <> None);
  Alcotest.check_raises "make refuses a broken partition"
    (Failure
       "covscope: tier partition broken: sum of tier counts 5 <> 6 retired")
    (fun () -> ignore (Report.make (Report.of_stats st)))

(* ---- 4. the per-rule ledger flags dead and negative-payoff rules ---- *)

let test_rule_ledger_flags () =
  let st = Stats.create () in
  let cls = Insn.cls_index (Insn.classify (Insn.make (Insn.Nop))) in
  let cheap = Attr.pack_raw ~tier:Attr.Rule ~cls ~idiom:0 ~rule:(Some 3) in
  let costly = Attr.pack_raw ~tier:Attr.Rule ~cls ~idiom:1 ~rule:(Some 5) in
  let base = Attr.pack_raw ~tier:Attr.Baseline ~cls ~idiom:0 ~rule:None in
  (* baseline-tier retirements of the same class set the measured
     counterfactual mean (~20 host insns per guest insn) *)
  for _ = 1 to 10 do
    sim st base 20
  done;
  for _ = 1 to 10 do
    sim st cheap 2
  done;
  for _ = 1 to 10 do
    sim st costly 50
  done;
  Stats.retire st base (* flush the last accrual *);
  let report =
    Report.make
      ~rules:[ (3, "cheap"); (5, "costly"); (9, "unused") ]
      (Report.of_stats st)
  in
  let row id = List.find (fun r -> r.Report.rule_id = id) report.Report.rules in
  Alcotest.(check bool) "profitable rule is neither dead nor negative" true
    (let r = row 3 in
     (not r.Report.dead) && (not r.Report.negative) && r.Report.payoff > 0.);
  Alcotest.(check bool) "costlier-than-baseline rule flags negative payoff" true
    (let r = row 5 in
     (not r.Report.dead) && r.Report.negative && r.Report.payoff < 0.);
  Alcotest.(check bool) "never-fired rule flags dead" true
    (let r = row 9 in
     r.Report.dead && r.Report.hits = 0)

(* ---- 5. the document-kind check of every dbt_analyze subcommand ---- *)

let artifact_kinds =
  [ "dbt-stats"; "dbt-coverage"; "fleet-telemetry"; "bench"; "trace"; "metrics" ]

let test_check_kind () =
  let doc k = Jsonx.parse (Jsonx.obj [ ("meta", Jsonx.str k) ]) in
  List.iter
    (fun expect ->
      List.iter
        (fun k ->
          let r = An.check_kind ~expect (doc k) in
          if k = expect then
            Alcotest.(check bool) (expect ^ " accepts itself") true (r = Ok ())
          else
            Alcotest.(check bool)
              (expect ^ " rejects " ^ k)
              true (Result.is_error r))
        artifact_kinds)
    artifact_kinds;
  let bare = Jsonx.parse "{}" in
  Alcotest.(check bool) "untagged legacy documents pass by default" true
    (An.check_kind ~expect:"dbt-stats" bare = Ok ());
  Alcotest.(check bool) "untagged documents fail under require" true
    (Result.is_error (An.check_kind ~require:true ~expect:"dbt-coverage" bare));
  Alcotest.(check bool) "non-string meta is rejected" true
    (Result.is_error (An.check_kind ~expect:"bench" (Jsonx.parse "{\"meta\":3}")))

(* ---- 6. a real run: high coverage, rule sites, tagged JSON ---- *)

let run_gcc () =
  let spec = W.find "gcc" in
  let iters = max 1 (8_000 / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let sys = D.System.create (D.System.Rules D.Opt.full) in
  K.load image (fun base words -> D.System.load_image sys base words);
  ignore (D.System.run ~max_guest_insns:2_000_000 sys);
  sys

let test_real_run_coverage () =
  let sys = run_gcc () in
  (* coverage_report asserts the tier partition over the real stream *)
  let report = D.System.coverage_report sys in
  Alcotest.(check bool) "rule coverage is high on gcc" true
    (Report.coverage report > 0.5);
  Alcotest.(check bool) "some rule has dynamic hits and static sites" true
    (List.exists
       (fun r -> r.Report.hits > 0 && r.Report.sites > 0)
       report.Report.rules);
  (match report.Report.opportunities with
  | o :: _ ->
    Alcotest.(check bool) "top opportunity carries a savings estimate" true
      (o.Report.o_savings >= 0.)
  | [] -> Alcotest.fail "no rule-learning opportunities ranked on gcc");
  let v = Jsonx.parse (Report.to_json report) in
  Alcotest.(check bool) "report document is kind-tagged" true
    (An.check_kind ~require:true ~expect:"dbt-coverage" v = Ok ())

let suite =
  [
    ( "covscope",
      [
        Alcotest.test_case "class table is dense and invertible" `Quick
          test_class_table;
        QCheck_alcotest.to_alcotest prop_classify_total;
        QCheck_alcotest.to_alcotest prop_attr_roundtrip;
        Alcotest.test_case "tier partition on a synthetic stream" `Quick
          test_stats_partition_synthetic;
        Alcotest.test_case "rule ledger flags dead/negative rules" `Quick
          test_rule_ledger_flags;
        Alcotest.test_case "document-kind check across artifact kinds" `Quick
          test_check_kind;
        Alcotest.test_case "real run: coverage, sink, tagged report" `Slow
          test_real_run_coverage;
      ] );
  ]
