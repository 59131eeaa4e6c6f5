open Repro_common
module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Table = Repro_common.Table

type t = {
  ruleset : Repro_rules.Ruleset.t;
  target_insns : int;
  timer_period : int;
  memo : (string * string, run) Hashtbl.t;
}

and run = {
  bench : string;
  mode : string;
  guest : int;
  host : int;
  sync_insns : int;
  sync_ops : int;
  mmu_accesses : int;
  irq_polls : int;
  irqs_delivered : int;
  sys_helper_calls : int;
  exit_code : Word32.t;
  shadow_replays : int;
  shadow_divergences : int;
  rules_quarantined : int;
  quarantine_fallbacks : int;
  faults_injected : int;
}

exception Did_not_halt of string

let create ?ruleset ?(target_insns = 200_000) ?(timer_period = 5_000) () =
  let ruleset =
    match ruleset with
    | Some r -> r
    | None ->
      (* The paper applies the parameterized rules previously learned
         by the MICRO'20 framework — a much larger training corpus
         than ours. The hand-checked core set stands in for that
         coverage, extended by what our pipeline learns (see
         EXPERIMENTS.md). *)
      Repro_learn.Learn.(full_ruleset (learn ()))
  in
  { ruleset; target_insns; timer_period; memo = Hashtbl.create 64 }

let host_per_guest r = if r.guest = 0 then 0. else float_of_int r.host /. float_of_int r.guest
let sync_per_guest r = if r.guest = 0 then 0. else float_of_int r.sync_insns /. float_of_int r.guest

let execute ?(chaining = true) ?timer_period ?ruleset ?inject ?shadow_depth
    ?quarantine_threshold t ~bench ~mode_name mode user_program =
  let timer_period = Option.value timer_period ~default:t.timer_period in
  let key =
    ( bench,
      Printf.sprintf "%s%s/t%d%s%s%s%s" mode_name
        (if chaining then "" else "/nochain")
        timer_period
        (if ruleset = None then "" else "/trunc")
        (if inject = None then "" else "/inj")
        (match shadow_depth with None -> "" | Some d -> Printf.sprintf "/sh%d" d)
        (match quarantine_threshold with
        | None -> ""
        | Some q -> Printf.sprintf "/q%d" q) )
  in
  match Hashtbl.find_opt t.memo key with
  | Some r -> r
  | None ->
    let image = K.build ~timer_period ~user_program () in
    let ruleset = Option.value ruleset ~default:t.ruleset in
    let sys = D.System.create ~ruleset ?inject ?shadow_depth ?quarantine_threshold mode in
    K.load image (fun base words -> D.System.load_image sys base words);
    let budget = 40 * t.target_insns in
    let res = D.System.run ~chaining ~max_guest_insns:budget sys in
    let exit_code =
      match res.T.Engine.reason with
      | `Halted c -> c
      | `Insn_limit | `Deadline ->
        raise
          (Did_not_halt
             (Printf.sprintf "Harness: %s under %s did not halt" bench mode_name))
      | `Livelock pc ->
        raise
          (Did_not_halt
             (Printf.sprintf "Harness: %s under %s livelocked at %#x" bench mode_name
                pc))
    in
    let s = D.System.stats sys in
    let r =
      {
        bench;
        mode = mode_name;
        guest = s.Stats.guest_insns;
        host = s.Stats.host_insns;
        sync_insns = Stats.tag_count s Repro_x86.Insn.Tag_sync;
        sync_ops = s.Stats.sync_ops;
        mmu_accesses = s.Stats.mmu_accesses;
        irq_polls = s.Stats.irq_polls;
        irqs_delivered = s.Stats.irqs_delivered;
        sys_helper_calls = s.Stats.sys_insns;
        exit_code;
        shadow_replays = s.Stats.shadow_replays;
        shadow_divergences = s.Stats.shadow_divergences;
        rules_quarantined = s.Stats.rules_quarantined;
        quarantine_fallbacks = s.Stats.quarantine_fallbacks;
        faults_injected =
          (match inject with
          | None -> 0
          | Some inj -> Repro_faultinject.Faultinject.total_fired inj);
      }
    in
    Hashtbl.replace t.memo key r;
    r

let spec_program t spec =
  let iters = max 1 (t.target_insns / W.insns_per_iteration spec) in
  W.generate spec ~iterations:iters

let run_spec ?inject ?shadow_depth ?quarantine_threshold t spec mode =
  let mode_name = D.System.mode_name mode in
  execute ?inject ?shadow_depth ?quarantine_threshold t ~bench:spec.W.name
    ~mode_name mode (spec_program t spec)

let run_app t app mode =
  let mode_name = D.System.mode_name mode in
  let user = W.generate_app app ~iterations:(max 1 (t.target_insns / 900)) in
  execute t ~bench:app.W.app_name ~mode_name mode user

(* ---------- experiment tables ---------- *)

type table = { title : string; header : string list; rows : string list list }

let render tb =
  Printf.sprintf "== %s ==\n%s" tb.title (Table.render ~header:tb.header tb.rows)

let qemu = D.System.Qemu
let rules o = D.System.Rules o

let per_bench _t f = List.map (fun spec -> f spec) W.cint2006

let table1 t =
  let rows =
    per_bench t (fun spec ->
        let r = run_spec t spec qemu in
        let pct n = Table.percent (float_of_int n /. float_of_int r.guest) in
        [ spec.W.name; pct r.sys_helper_calls; pct r.mmu_accesses; pct r.irq_polls ])
  in
  let geo idx =
    Table.geomean
      (per_bench t (fun spec ->
           let r = run_spec t spec qemu in
           let v =
             match idx with
             | 0 -> r.sys_helper_calls
             | 1 -> r.mmu_accesses
             | _ -> r.irq_polls
           in
           float_of_int v /. float_of_int r.guest))
  in
  {
    title = "Table I: coordination-trigger frequencies (measured, QEMU mode)";
    header = [ "benchmark"; "system-level"; "memory"; "irq checks" ];
    rows =
      rows
      @ [
          [ "GEOMEAN"; Table.percent (geo 0); Table.percent (geo 1); Table.percent (geo 2) ];
        ];
  }

let avg xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fig8 t =
  let per_op level =
    avg
      (per_bench t (fun spec ->
           let r = run_spec t spec (rules level) in
           if r.sync_ops = 0 then 0.
           else float_of_int r.sync_insns /. float_of_int r.sync_ops))
  in
  {
    title = "Fig 8: host instructions per coordination operation (paper: 14 -> 3)";
    header = [ "design"; "insns/coordination" ];
    rows =
      [
        [ "unoptimized (parse one-to-many)"; Table.fixed 1 (per_op D.Opt.base) ];
        [ "+ reduction (packed CCR)"; Table.fixed 1 (per_op D.Opt.reduction_only) ];
      ];
  }

let speedup t spec mode =
  let q = run_spec t spec qemu in
  let r = run_spec t spec mode in
  float_of_int q.host /. float_of_int r.host

let fig14 t =
  let rows =
    per_bench t (fun spec ->
        [
          spec.W.name;
          Table.fixed 2 (speedup t spec (rules D.Opt.base));
          Table.fixed 2 (speedup t spec (rules D.Opt.full));
        ])
  in
  let geo mode = Table.geomean (per_bench t (fun spec -> speedup t spec mode)) in
  {
    title = "Fig 14: speedup over QEMU (paper: 0.95x unoptimized, 1.36x full)";
    header = [ "benchmark"; "rules (unopt)"; "rules (full opt)" ];
    rows =
      rows
      @ [
          [
            "GEOMEAN";
            Table.fixed 2 (geo (rules D.Opt.base));
            Table.fixed 2 (geo (rules D.Opt.full));
          ];
        ];
  }

let fig15 t =
  let rows =
    per_bench t (fun spec ->
        let q = run_spec t spec qemu in
        let r = run_spec t spec (rules D.Opt.full) in
        [ spec.W.name; Table.fixed 2 (host_per_guest q); Table.fixed 2 (host_per_guest r) ])
  in
  let geo mode =
    Table.geomean (per_bench t (fun spec -> host_per_guest (run_spec t spec mode)))
  in
  {
    title = "Fig 15: host insns per guest insn (paper: QEMU 17.39, rules 15.40)";
    header = [ "benchmark"; "qemu"; "rules (full opt)" ];
    rows =
      rows
      @ [
          [
            "GEOMEAN";
            Table.fixed 2 (geo qemu);
            Table.fixed 2 (geo (rules D.Opt.full));
          ];
        ];
  }

let fig16 t =
  let geo mode = Table.geomean (per_bench t (fun spec -> speedup t spec mode)) in
  {
    title = "Fig 16: cumulative speedup (paper: 0.95 -> 1.22 -> 1.30 -> 1.36)";
    header = [ "configuration"; "geomean speedup vs qemu" ];
    rows =
      List.map
        (fun (name, opt) -> [ name; Table.fixed 2 (geo (rules opt)) ])
        D.Opt.levels;
  }

let fig17 t =
  let per_level opt =
    avg (per_bench t (fun spec -> sync_per_guest (run_spec t spec (rules opt))))
  in
  {
    title =
      "Fig 17: coordination host insns per guest insn (paper: 8.36 -> 1.79 -> 1.33 -> 0.89)";
    header = [ "configuration"; "sync insns / guest insn" ];
    rows =
      List.map
        (fun (name, opt) -> [ name; Table.fixed 2 (per_level opt) ])
        D.Opt.levels;
  }

let fig18 t =
  (* Native execution = the guest program on real hardware; with host
     instructions as the cycle proxy, slowdown = host insns per native
     guest insn. *)
  let rows =
    per_bench t (fun spec ->
        let q = run_spec t spec qemu in
        let r = run_spec t spec (rules D.Opt.full) in
        [
          spec.W.name;
          Table.fixed 2 (host_per_guest q) ^ "x";
          Table.fixed 2 (host_per_guest r) ^ "x";
        ])
  in
  let geo mode =
    Table.geomean (per_bench t (fun spec -> host_per_guest (run_spec t spec mode)))
  in
  {
    title = "Fig 18: slowdown vs native (paper: QEMU 18.73x, rules 13.83x; lower is better)";
    header = [ "benchmark"; "qemu"; "rules (full opt)" ];
    rows =
      rows
      @ [
          [
            "GEOMEAN";
            Table.fixed 2 (geo qemu) ^ "x";
            Table.fixed 2 (geo (rules D.Opt.full)) ^ "x";
          ];
        ];
  }

let fig19 t =
  let app_speedup app =
    let q = run_app t app qemu in
    let r = run_app t app (rules D.Opt.full) in
    float_of_int q.host /. float_of_int r.host
  in
  let rows =
    List.map
      (fun app -> [ app.W.app_name; Table.fixed 2 (app_speedup app) ])
      W.apps
  in
  let geo = Table.geomean (List.map app_speedup W.apps) in
  {
    title = "Fig 19: real-world application speedup (paper: 1.15x geomean)";
    header = [ "application"; "speedup vs qemu" ];
    rows = rows @ [ [ "GEOMEAN"; Table.fixed 2 geo ] ];
  }

let coverage t =
  let rows =
    per_bench t (fun spec ->
        (* fresh system to read per-benchmark translator counters *)
        let image =
          K.build ~timer_period:t.timer_period ~user_program:(spec_program t spec) ()
        in
        let sys = D.System.create ~ruleset:t.ruleset (rules D.Opt.full) in
        K.load image (fun base words -> D.System.load_image sys base words);
        ignore (D.System.run ~max_guest_insns:(40 * t.target_insns) sys);
        match sys.D.System.rule_translator with
        | None -> [ spec.W.name; "-"; "-" ]
        | Some tr ->
          let st = D.Translator_rule.state tr in
          [
            spec.W.name;
            string_of_int st.D.Translator_rule.rule_covered;
            string_of_int st.D.Translator_rule.fallback;
          ])
  in
  {
    title = "Extension: static rule coverage vs fallback (translated insns, full opt)";
    header = [ "benchmark"; "rule-covered"; "fallback" ];
    rows;
  }

(* ---------- ablations (extensions beyond the paper) ---------- *)

let ablation_chaining t =
  let benches = [ "gcc"; "perlbench"; "hmmer" ] in
  let rows =
    List.map
      (fun name ->
        let spec = W.find name in
        let prog = spec_program t spec in
        let q = execute t ~bench:name ~mode_name:"qemu" qemu prog in
        let with_chain =
          execute t ~bench:name ~mode_name:"rules:full" (rules D.Opt.full) prog
        in
        let without =
          execute ~chaining:false t ~bench:name ~mode_name:"rules:full"
            (rules D.Opt.full) prog
        in
        [
          name;
          Table.fixed 2 (float_of_int q.host /. float_of_int with_chain.host);
          Table.fixed 2 (float_of_int q.host /. float_of_int without.host);
        ])
      benches
  in
  {
    title = "Ablation: block chaining (III-C-3's substrate)";
    header = [ "benchmark"; "full opt"; "full opt, chaining off" ];
    rows;
  }

let ablation_timer t =
  let spec = W.find "gcc" in
  let prog = spec_program t spec in
  let rows =
    List.map
      (fun period ->
        let r =
          execute ~timer_period:period t ~bench:"gcc" ~mode_name:"rules:+reduction"
            (rules D.Opt.reduction_only) prog
        in
        [
          string_of_int period;
          string_of_int r.irqs_delivered;
          Table.fixed 2 (sync_per_guest r);
        ])
      [ 500; 5_000; 50_000 ]
  in
  {
    title =
      "Ablation: timer period vs coordination cost (lazy parse keeps checks cheap, Fig 7)";
    header = [ "timer period"; "irqs delivered"; "sync insns / guest insn" ];
    rows;
  }

let ablation_ruleset t =
  let spec = W.find "gcc" in
  let prog = spec_program t spec in
  let q = execute t ~bench:"gcc" ~mode_name:"qemu" qemu prog in
  let all_rules = Repro_rules.Ruleset.rules t.ruleset in
  let n = List.length all_rules in
  let rows =
    List.map
      (fun pct ->
        let keep = max 1 (n * pct / 100) in
        let truncated =
          Repro_rules.Ruleset.of_list (List.filteri (fun i _ -> i < keep) all_rules)
        in
        let r =
          execute ~ruleset:truncated t ~bench:"gcc"
            ~mode_name:(Printf.sprintf "rules:full/%d%%" pct)
            (rules D.Opt.full) prog
        in
        [
          Printf.sprintf "%d%% (%d rules)" pct keep;
          Table.fixed 2 (float_of_int q.host /. float_of_int r.host);
        ])
      [ 10; 25; 50; 100 ]
  in
  {
    title = "Ablation: rule-set coverage vs speedup";
    header = [ "rule set kept"; "speedup vs qemu" ];
    rows;
  }

let ablation_inline_mmu t =
  let rows =
    per_bench t (fun spec ->
        let prog = spec_program t spec in
        let q = execute t ~bench:spec.W.name ~mode_name:"qemu" qemu prog in
        let full =
          execute t ~bench:spec.W.name ~mode_name:"rules:full" (rules D.Opt.full) prog
        in
        let fut =
          execute t ~bench:spec.W.name ~mode_name:"rules:future" (rules D.Opt.future)
            prog
        in
        [
          spec.W.name;
          Table.fixed 2 (float_of_int q.host /. float_of_int full.host);
          Table.fixed 2 (float_of_int q.host /. float_of_int fut.host);
        ])
  in
  let geo mode =
    Table.geomean (per_bench t (fun spec -> speedup t spec mode))
  in
  ignore geo;
  let geo_of col =
    Table.geomean
      (List.map (fun row -> float_of_string (List.nth row col)) rows)
  in
  {
    title =
      "Ablation: inline softMMU fast path for rules (the paper's future work on address translation)";
    header = [ "benchmark"; "full opt"; "full + inline mmu" ];
    rows =
      rows @ [ [ "GEOMEAN"; Table.fixed 2 (geo_of 1); Table.fixed 2 (geo_of 2) ] ];
  }

let ablation_cost_model t =
  (* Robustness of the shape claims under perturbation of the modelled
     (non-operational) half of the cost model: emitted host code is
     always counted operationally, so the scale stresses exactly the
     engine/helper-side calibration constants of DESIGN.md §5. *)
  let spec = W.find "gcc" in
  let prog = spec_program t spec in
  let run_at pct mode_name mode =
    T.Costs.set_scale_pct pct;
    Fun.protect
      ~finally:(fun () -> T.Costs.set_scale_pct 100)
      (fun () ->
        execute t ~bench:"gcc"
          ~mode_name:(Printf.sprintf "%s@%d%%" mode_name pct)
          mode prog)
  in
  let rows =
    List.map
      (fun pct ->
        let q = run_at pct "qemu" qemu in
        let base = run_at pct "rules:base" (rules D.Opt.base) in
        let full = run_at pct "rules:full" (rules D.Opt.full) in
        let fut = run_at pct "rules:future" (rules D.Opt.future) in
        [
          Printf.sprintf "%d%%" pct;
          Table.fixed 2 (float_of_int q.host /. float_of_int base.host);
          Table.fixed 2 (float_of_int q.host /. float_of_int full.host);
          Table.fixed 2 (float_of_int q.host /. float_of_int fut.host);
        ])
      [ 50; 100; 200 ]
  in
  {
    title =
      "Ablation: modelled-cost scale vs speedup (robustness of the shape claims, gcc)";
    header =
      [ "helper-cost scale"; "rules:base"; "rules:full"; "rules:full+inline-mmu" ];
    rows;
  }

(* The paper's §IV-B bottleneck analysis: group executed host
   instructions by functionality. Requires fresh (un-memoized) runs to
   read the per-tag counters. *)
let breakdown t =
  let tags = Repro_x86.Insn.all_tags in
  let row mode_name mode =
    let spec = W.find "gcc" in
    let image =
      K.build ~timer_period:t.timer_period ~user_program:(spec_program t spec) ()
    in
    let sys = D.System.create ~ruleset:t.ruleset mode in
    K.load image (fun base words -> D.System.load_image sys base words);
    ignore (D.System.run ~max_guest_insns:(40 * t.target_insns) sys);
    let s = D.System.stats sys in
    let g = float_of_int s.Repro_x86.Stats.guest_insns in
    mode_name
    :: List.map
         (fun tag ->
           Table.fixed 2 (float_of_int (Stats.tag_count s tag) /. g))
         tags
  in
  {
    title =
      "Extension (paper SIV-B): host insns per guest insn by functionality (gcc)";
    header = "engine" :: List.map Repro_x86.Insn.tag_name tags;
    rows =
      [
        row "qemu" qemu;
        row "rules:base" (rules D.Opt.base);
        row "rules:full" (rules D.Opt.full);
        row "rules:future" (rules D.Opt.future);
      ];
  }

let ablations t =
  [
    breakdown t;
    ablation_chaining t;
    ablation_timer t;
    ablation_ruleset t;
    ablation_inline_mmu t;
    ablation_cost_model t;
  ]

let all t =
  [
    table1 t; fig8 t; fig14 t; fig15 t; fig16 t; fig17 t; fig18 t; fig19 t; coverage t;
  ]
  @ ablations t
