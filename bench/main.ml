(* The bench harness behind CI's perf gate.

   It writes the consolidated BENCH_<rev>.json the regression gate
   consumes: one deterministic full-system run per Fig. 14/15/17/18
   slice with its host-insn/guest-insn figures. Wall clock is not
   measured here — dbtbench/ measures it repeatably. The paper's
   tables and figures are printed by repro-experiments.

   Environment knobs:
     REPRO_BENCH_TARGET           guest insns per slice run (default 120000)
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
  ignore (D.System.run ~max_guest_insns:(60 * target) sys);
  let st = D.System.stats sys in
  (* Building the coverage report re-asserts the tier partition
     invariant (sum of tier retirements = retired guest insns) on
     every slice — the bench run doubles as its runtime check. *)
  let coverage = Cov.Report.coverage (Cov.Report.make (Cov.Report.of_stats st)) in
  Printf.printf
    "  %-24s %-18s guest %9d  host/guest %7.3f  cov %5.1f%%\n%!"
    s.bs_name (D.System.mode_name mode) st.Stats.guest_insns
    (Stats.host_per_guest st) (100. *. coverage);
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
  write_clearly ~what:"bench file" path
    (Jsonx.obj
       [
         ("meta", Jsonx.str "bench");
         ("rev", Jsonx.str rev);
         ("target", Jsonx.int target);
         ("slices", Jsonx.arr slices);
       ]
    ^ "\n");
  Printf.printf "consolidated bench file written to %s (%d slices)\n%!" path
    (List.length slices)

let () = bench_json ()
