(* The bench harness behind CI's perf gate.

   Part 1 writes the consolidated BENCH_<rev>.json the regression gate
   consumes: one deterministic full-system run per Fig. 14/15/17/18
   slice with its host-insn/guest-insn figures (and a single-sample
   wall_ms, which is not a metric — dbtbench/ measures wall clock
   repeatably). Part 2 serves one chaos drill at 1, 2 and 4 domains
   and checks the report is identical at every point. The paper's
   tables and figures are printed by repro-experiments.

   Environment knobs:
     REPRO_BENCH_TARGET           guest insns per slice run (default 120000)
     REPRO_BENCH_SKIP_SCALING     set to skip the domain-scaling section
     REPRO_BENCH_JSON             path of the consolidated bench file
                                  (default BENCH_<rev>.json in the cwd)
     REPRO_BENCH_REV              revision stamp in the bench file (default dev)
     REPRO_BENCH_ABLATE           run the rule-enabled slices with every
                                  optimization pass off (rules:base) — a
                                  synthetic regression that must trip the
                                  gate against a full-opt baseline *)

module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Jsonx = Repro_observe.Jsonx
module Cov = Repro_covscope

let target =
  match Sys.getenv_opt "REPRO_BENCH_TARGET" with
  | Some s -> int_of_string s
  | None -> 120_000

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Write [path] crash-atomically (temp + rename), creating parent
   directories; any refusal (unwritable parent, path is a directory,
   ...) fails with a clear message instead of an uncaught Sys_error.
   A bench process killed mid-write must never leave a truncated JSON
   for the dbt_analyze regression gate to misread as a regression. *)
let write_clearly ~what path content =
  try
    mkdir_p (Filename.dirname path);
    Repro_common.Atomicio.write path content
  with Sys_error e ->
    Printf.eprintf "bench: cannot write %s %s: %s\n%!" what path e;
    exit 1

let ruleset = lazy (Repro_rules.Builtin.ruleset ())

(* ---------- part 1: the consolidated BENCH file ---------- *)

let rev = Option.value (Sys.getenv_opt "REPRO_BENCH_REV") ~default:"dev"
let ablate = Sys.getenv_opt "REPRO_BENCH_ABLATE" <> None

type bench_slice = {
  bs_name : string;
  bs_figure : string;
  bs_mode : D.System.mode;
  bs_bench : string;
  bs_rule_enabled : bool;
}

let slice name figure mode bench rule_enabled =
  {
    bs_name = name;
    bs_figure = figure;
    bs_mode = mode;
    bs_bench = bench;
    bs_rule_enabled = rule_enabled;
  }

(* One slice per bar the gate protects: the Fig. 14 speedup pair, the
   Fig. 15 expansion pair, the Fig. 17 optimization ladder, and the
   Fig. 18 native-ratio workload. The qemu slices are the reference
   the speedups are measured against — recorded, never gated. *)
let bench_slices =
  [
    slice "fig14-qemu-gcc" "fig14" D.System.Qemu "gcc" false;
    slice "fig14-full-gcc" "fig14" (D.System.Rules D.Opt.full) "gcc" true;
    slice "fig15-qemu-mcf" "fig15" D.System.Qemu "mcf" false;
    slice "fig15-full-mcf" "fig15" (D.System.Rules D.Opt.full) "mcf" true;
    slice "fig17-base-gcc" "fig17" (D.System.Rules D.Opt.base) "gcc" true;
    slice "fig17-reduction-gcc" "fig17"
      (D.System.Rules D.Opt.reduction_only) "gcc" true;
    slice "fig17-elimination-gcc" "fig17"
      (D.System.Rules D.Opt.with_elimination) "gcc" true;
    slice "fig17-regions-gcc" "fig17"
      (D.System.Rules D.Opt.with_regions) "gcc" true;
    slice "fig18-full-hmmer" "fig18" (D.System.Rules D.Opt.full) "hmmer" true;
    slice "fig18-regions-mcf" "fig18"
      (D.System.Rules D.Opt.with_regions) "mcf" true;
  ]

(* The ablation keeps each slice's name (so the gate matches it
   against the baseline) but strips every optimization pass: measured
   — not synthesized — regression numbers. *)
let effective_mode s =
  match (ablate && s.bs_rule_enabled, s.bs_mode) with
  | true, D.System.Rules _ -> D.System.Rules D.Opt.base
  | _ -> s.bs_mode

let run_bench_slice s =
  let mode = effective_mode s in
  let spec = W.find s.bs_bench in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:2_000 ~user_program:user () in
  let sys = D.System.create ~ruleset:(Lazy.force ruleset) mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  let t0 = Sys.time () in
  ignore (D.System.run ~max_guest_insns:(60 * target) sys);
  let wall_ms = (Sys.time () -. t0) *. 1000. in
  let st = D.System.stats sys in
  (* Building the coverage report re-asserts the tier partition
     invariant (sum of tier retirements = retired guest insns) on
     every slice — the bench run doubles as its runtime check. *)
  let coverage = Cov.Report.coverage (Cov.Report.make (Cov.Report.of_stats st)) in
  Printf.printf
    "  %-24s %-18s guest %9d  host/guest %7.3f  cov %5.1f%%  %8.1f ms\n%!"
    s.bs_name (D.System.mode_name mode) st.Stats.guest_insns
    (Stats.host_per_guest st) (100. *. coverage) wall_ms;
  Jsonx.obj
    [
      ("name", Jsonx.str s.bs_name);
      ("figure", Jsonx.str s.bs_figure);
      ("mode", Jsonx.str (D.System.mode_name mode));
      ("bench", Jsonx.str s.bs_bench);
      ("rule_enabled", Jsonx.bool s.bs_rule_enabled);
      ("guest_insns", Jsonx.int st.Stats.guest_insns);
      ("host_insns", Jsonx.int st.Stats.host_insns);
      ("host_per_guest", Jsonx.float (Stats.host_per_guest st));
      ("sync_insns", Jsonx.int (Stats.tag_count st Repro_x86.Insn.Tag_sync));
      ("coverage", Jsonx.float coverage);
      ("wall_ms", Jsonx.float wall_ms);
    ]

(* ---------- part 2: domain-scaling slice ----------

   One chaos drill served at 1, 2 and 4 domains. The report must come
   out byte-identical at every point (the determinism oracle — the
   bench re-checks it); only the wall clock may move. Wall time is
   [Unix.gettimeofday], not [Sys.time]: CPU time sums across domains,
   so a perfectly-scaling run would show no CPU-time change at all. *)

module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Par = Repro_parallel

let scaling_points = [ 1; 2; 4 ]
let scaling_machines = 4
let scaling_requests = 16
let scaling_target = 60_000
let scaling_warm = 4_000

let scaling_base () =
  let spec = W.find "gcc" in
  let iters = max 1 (scaling_target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let inject = Fi.create ~seed:1 ~rate:0.0 ~behavior:Fi.Surface () in
  let sys =
    D.System.create ~inject ~shadow_depth:4 ~quarantine_threshold:2
      (D.System.Rules D.Opt.full)
  in
  K.load image (fun base words -> D.System.load_image sys base words);
  match
    (D.System.run ~max_guest_insns:scaling_warm ~checkpoint_every:scaling_warm
       sys)
      .Repro_tcg.Engine.reason
  with
  | `Insn_limit -> D.System.snapshot sys
  | _ -> failwith "bench: scaling warm boot failed"

let scaling_drill base ~domains =
  let policy =
    {
      Res.Supervisor.default_policy with
      Res.Supervisor.deadline = 10 * scaling_target;
      checkpoint_every = 2_000;
    }
  in
  let plan =
    Fi.Plan.make ~seed:7 ~machines:scaling_machines ~faulty:1
      [
        (Fi.Bus_read, 0.0002);
        (Fi.Bus_write, 0.0002);
        (Fi.Tb_flush, 0.0001);
        (Fi.Rule_corrupt, 0.05);
      ]
  in
  let fleet =
    Res.Fleet.create ~plan
      ~config:
        { Res.Fleet.machines = scaling_machines; min_healthy = 1; policy }
      base
  in
  let t0 = Unix.gettimeofday () in
  Par.Parfleet.run fleet ~domains ~requests:scaling_requests;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (Res.Fleet.metrics_json fleet, wall_ms)

let scaling_json () =
  let recommended = Domain.recommended_domain_count () in
  Printf.printf
    "== domain-scaling drill (%d machines, %d requests, %d recommended \
     domain(s) on this host) ==\n%!"
    scaling_machines scaling_requests recommended;
  let base = scaling_base () in
  let runs =
    List.map (fun d -> (d, scaling_drill base ~domains:d)) scaling_points
  in
  let ref_report, wall1 =
    match runs with (1, r) :: _ -> r | _ -> assert false
  in
  let points =
    List.map
      (fun (d, (report, wall_ms)) ->
        if report <> ref_report then begin
          (* the oracle, enforced where the numbers are made: a
             scaling point that changes the report is not a speedup,
             it is a bug *)
          Printf.eprintf
            "bench: %d-domain drill report differs from 1-domain\n%!" d;
          exit 1
        end;
        let speedup = wall1 /. wall_ms in
        Printf.printf "  domains %d  %10.1f ms  speedup %5.2fx\n%!" d wall_ms
          speedup;
        Jsonx.obj
          [
            ("domains", Jsonx.int d);
            ("wall_ms", Jsonx.float wall_ms);
            ("speedup", Jsonx.float speedup);
          ])
      runs
  in
  Jsonx.obj
    [
      ("machines", Jsonx.int scaling_machines);
      ("requests", Jsonx.int scaling_requests);
      ("target", Jsonx.int scaling_target);
      ("recommended_domains", Jsonx.int recommended);
      ("report_identical", Jsonx.bool true);
      ("points", Jsonx.arr points);
    ]

let bench_json () =
  let path =
    match Sys.getenv_opt "REPRO_BENCH_JSON" with
    | Some p -> p
    | None -> Printf.sprintf "BENCH_%s.json" rev
  in
  Printf.printf "== consolidated bench slices (rev %s, target %d%s) ==\n%!" rev
    target
    (if ablate then ", ABLATED" else "");
  let slices = List.map run_bench_slice bench_slices in
  (* the scaling drill lives under its own top-level key, not in
     .slices: the regression gate compares slices by host/guest-insn
     figures, and wall-clock scaling is an environment fact, not a
     translation-quality one *)
  let scaling =
    match Sys.getenv_opt "REPRO_BENCH_SKIP_SCALING" with
    | Some _ -> []
    | None -> [ ("scaling", scaling_json ()) ]
  in
  write_clearly ~what:"bench file" path
    (Jsonx.obj
       ([
          ("meta", Jsonx.str "bench");
          ("rev", Jsonx.str rev);
          ("target", Jsonx.int target);
          ("slices", Jsonx.arr slices);
        ]
       @ scaling)
    ^ "\n");
  Printf.printf "consolidated bench file written to %s (%d slices)\n%!" path
    (List.length slices)

let () = bench_json ()
