(* Performance-observatory tour: attach a perf scope to a run, show
   the deterministic phase breakdown and the latency histograms, and
   write a collapsed-stack flamegraph of the scope's hot-block table.

     dune exec examples/perf_tour.exe

   Outputs (in the current directory):
     perf_tour.json    {"perf":..,"costs":..,"stats":..} — the same
                       shape `dbt_run --perf FILE` writes; feed it to
                       `repro-dbt-analyze phases` / `diff`
     perf_tour.folded  folded stacks for flamegraph.pl / inferno /
                       speedscope, weighted in host instructions

   The console walks through the three claims the observatory makes:

   1. the six phases partition host_insns *exactly* (no sampling, no
      residual bucket) — checked here with an assertion;
   2. the latency histograms (IRQ raise->deliver, TB translate->chain,
      watchdog checkpoint intervals) run on the retired-guest-insn
      clock, so they are bit-reproducible;
   3. a second same-seed run diffs against the first at 0.0% in every
      phase — the property the CI regression gate stands on. *)

module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Perf = Repro_perfscope
module Obs = Repro_observe
module Stats = Repro_x86.Stats

let build_image () =
  let spec = W.find "gcc" in
  let user =
    W.generate spec ~iterations:(max 1 (60_000 / W.insns_per_iteration spec))
  in
  K.build ~timer_period:5_000 ~user_program:user ()

(* One scoped run; returns the stats-json document. *)
let scoped_run image =
  let scope = Perf.Scope.create () in
  let sys = D.System.create ~scope (D.System.Rules D.Opt.full) in
  K.load image (fun base words -> D.System.load_image sys base words);
  (match
     (D.System.run ~max_guest_insns:3_000_000 ~checkpoint_every:4_000
        sys).T.Engine.reason
   with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> failwith "did not halt");
  let json =
    Obs.Jsonx.obj
      [
        ("perf", Perf.Scope.to_json scope);
        ("costs", T.Costs.to_json ());
        ("stats", Stats.to_json (D.System.stats sys));
      ]
  in
  (scope, D.System.stats sys, json)

let () =
  let image = build_image () in
  let scope, stats, json = scoped_run image in

  (* 1. exact partition *)
  let host = stats.Stats.host_insns in
  assert (Perf.Scope.total scope = host);
  Format.printf "phase breakdown (%d host insns, partitioned exactly):@." host;
  List.iter
    (fun ph ->
      let n = Perf.Scope.phase_count scope ph in
      Format.printf "  %-10s %9d  %5.1f%%@." (Perf.Phase.name ph) n
        (100. *. float_of_int n /. float_of_int host))
    Perf.Phase.all;

  (* 2. the three latency histograms *)
  let show name h =
    Format.printf "@.%s (guest insns): %a@." name Perf.Histo.pp h
  in
  show "IRQ raise->deliver" (Perf.Scope.irq_latency scope);
  show "TB translate->first chain" (Perf.Scope.chain_latency scope);
  show "checkpoint intervals" (Perf.Scope.checkpoint_interval scope);

  (* 3. same-seed run diffs at exactly zero *)
  let _, _, json2 = scoped_run image in
  let rows = Perf.Analysis.diff (Obs.Jsonx.parse json) (Obs.Jsonx.parse json2) in
  Format.printf "@.same-seed A/B diff: max |delta| = %.1f%% over %d phases@."
    (Perf.Analysis.max_abs_pct rows)
    (List.length rows);
  assert (Perf.Analysis.max_abs_pct rows = 0.);

  (* artifacts *)
  let oc = open_out "perf_tour.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  let fl =
    Perf.Scope.flame scope ~frames:(fun b ->
        [
          "rules-full";
          (if b.Perf.Scope.privileged then "kernel" else "user");
          K.symbolize image b.Perf.Scope.pc;
          Printf.sprintf "tb_0x%08x" b.Perf.Scope.pc;
        ])
  in
  let oc = open_out "perf_tour.folded" in
  Perf.Flame.write_folded oc fl;
  close_out oc;
  Format.printf "@.hot blocks:@.%a@." (Perf.Scope.pp_blocks ~top:5) scope;
  Format.printf "wrote perf_tour.json and perf_tour.folded@.";
  Format.printf
    "try: flamegraph.pl perf_tour.folded > perf_tour.svg@.";
  Format.printf "     repro-dbt-analyze phases perf_tour.json@."
