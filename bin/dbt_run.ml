(* Run one benchmark workload under one engine configuration and dump
   the dynamic statistics — the quick-look CLI around the system.

   Exit codes: 0 success, 2 usage error, 3 corrupt snapshot, 4 image
   load error, 5 unrecovered livelock, 6 replay mismatch, 7 depot
   verification failure (--depot-verify only: a depot that fails to
   load at run time degrades to a cold start and exits 0). Every
   flag/name validation (benchmark, mode, trace format, log level)
   happens up front, before rule learning or any other expensive
   work, so a typo always fails immediately with exit 2. *)

module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Snapshot = Repro_snapshot.Snapshot
module Journal = Repro_snapshot.Journal
module Obs = Repro_observe
module Perf = Repro_perfscope
module Depot = Repro_aotcache.Depot
module Atomicio = Repro_common.Atomicio
module Cov = Repro_covscope
open Cmdliner

let mode_names = List.map fst D.System.modes

let mode_of_string s =
  match List.assoc_opt s D.System.modes with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown mode %s (%s)" s (String.concat "|" mode_names))

let exit_corrupt = 3
let exit_load = 4
let exit_livelock = 5
let exit_replay_mismatch = 6
let exit_depot = 7

let build_ruleset builtin_only rules_file =
  match rules_file with
  | Some path -> (
    match Repro_rules.Serialize.load_file path with
    | Ok rs -> rs
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      exit 2)
  | None ->
    if builtin_only then Repro_rules.Builtin.ruleset ()
    else Repro_learn.Learn.(full_ruleset (learn ()))

(* --replay: reconstruct a machine matching the dump (mode, RAM,
   injector) and check the recorded failure reproduces. *)
let do_replay ruleset shadow_depth quarantine_threshold path =
  let snap = Snapshot.load_file path in
  let mode = D.System.snapshot_mode snap in
  let inject = D.System.snapshot_injector snap in
  let sys =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib snap)
      ~ruleset ?inject ~shadow_depth ~quarantine_threshold mode
  in
  let report = D.System.replay sys snap in
  Format.printf "replaying %s under %s@." path (D.System.mode_name mode);
  (match report.D.System.rep_reason with
  | Some r -> Format.printf "recorded failure: %s@." r
  | None -> ());
  Format.printf "expected events (%d):@."
    (List.length report.D.System.rep_expected);
  List.iter
    (fun e -> Format.printf "  %s@." (Journal.string_of_event e))
    report.D.System.rep_expected;
  Format.printf "replayed events (%d):@." (List.length report.D.System.rep_actual);
  List.iter
    (fun e -> Format.printf "  %s@." (Journal.string_of_event e))
    report.D.System.rep_actual;
  let reason_name =
    match report.D.System.rep_result.T.Engine.reason with
    | `Halted c -> Printf.sprintf "halted (exit code %#x)" c
    | `Insn_limit -> "instruction limit reached"
    | `Deadline -> "deadline reached"
    | `Livelock pc -> Printf.sprintf "livelocked at guest pc %#x" pc
  in
  Format.printf "replay outcome: %s@." reason_name;
  if report.D.System.rep_ok then begin
    Format.printf "deterministic replay: the recorded events reproduced@.";
    0
  end
  else begin
    Format.printf "REPLAY MISMATCH: the recorded events did not reproduce@.";
    exit_replay_mismatch
  end

(* --depot-verify: machine-free integrity + structural check of a
   persistent depot directory. Exit 0 with a summary, or 7 naming the
   damaged section — the typed failure CI corruption drills assert
   on. *)
let do_depot_verify dir =
  match
    let d = Depot.load dir in
    let plains, regions = D.System.depot_check d in
    (d, plains, regions)
  with
  | d, plains, regions ->
    let c = Depot.compat d in
    Format.printf
      "depot %s: generation %d, mode %s, ruleset digest %#x, hot threshold %d@."
      dir (Depot.generation d) c.Depot.c_mode c.Depot.c_rules_digest
      c.Depot.c_hot_threshold;
    Format.printf "  %d recipes, %d superblocks, %d quarantined PCs@." plains
      regions
      (List.length (Depot.quarantined_pcs d));
    0
  | exception Depot.Depot_error { section; reason } ->
    Printf.eprintf "depot %s FAILED verification: section %s: %s\n" dir section
      reason;
    exit_depot

let run bench mode_name target budget timer builtin_only rules_file dump_tbs
    profile_top inject_seed inject_rate surface_faults shadow_depth
    quarantine_threshold checkpoint_every save_file restore_file replay_file
    watchdog postmortem_dir trace_file trace_format metrics_out metrics_every
    ledger_on stats_json perf_out flamegraph_out depot_save depot_load
    depot_verify coverage coverage_out =
  if trace_format <> "jsonl" && trace_format <> "chrome" then begin
    Printf.eprintf "unknown trace format %s (jsonl|chrome)\n" trace_format;
    exit 2
  end;
  (match depot_verify with
  | Some dir -> exit (do_depot_verify dir)
  | None -> ());
  if depot_load <> None && (restore_file <> None || replay_file <> None) then begin
    Printf.eprintf "--depot-load cannot be combined with --restore or --replay\n";
    exit 2
  end;
  if depot_save <> None && replay_file <> None then begin
    Printf.eprintf "--depot-save cannot be combined with --replay\n";
    exit 2
  end;
  match mode_of_string mode_name with
  | Error e ->
    prerr_endline e;
    exit 2
  | Ok mode -> (
    (* Validate the benchmark name before [build_ruleset]: without
       --builtin-rules the learning pipeline runs first and a typo in
       the name used to burn all that work before failing. *)
    let spec =
      try W.find bench
      with Not_found ->
        Printf.eprintf "unknown benchmark %s (one of: %s)\n" bench
          (String.concat ", " (List.map (fun (s : W.spec) -> s.W.name) W.cint2006));
        exit 2
    in
    let inject =
      match inject_seed with
      | None -> None
      | Some seed ->
        Some
          (Repro_faultinject.Faultinject.create ~seed ~rate:inject_rate
             ~behavior:
               (if surface_faults then Repro_faultinject.Faultinject.Surface
                else Repro_faultinject.Faultinject.Transient)
             ())
    in
    (* The depot loads before the ruleset is built: a readable depot
       embeds the ruleset its code was translated under, and adopting
       it both skips re-learning and makes the compatibility digest
       match by construction (explicit --rules/--builtin-rules still
       win; install then checks the digest). Any failure here degrades
       to a cold start — the run proceeds, it just translates. *)
    let depot_loaded =
      match depot_load with
      | None -> None
      | Some dir -> (
        match Depot.load ?inject dir with
        | d -> Some d
        | exception Depot.Depot_error { section; reason } ->
          Printf.eprintf
            "depot %s unusable (section %s: %s); falling back to cold start\n"
            dir section reason;
          None)
    in
    let ruleset =
      match (depot_loaded, mode) with
      | Some d, D.System.Rules _
        when rules_file = None && (not builtin_only) && Depot.rules d <> "" -> (
        match Repro_rules.Serialize.load (Depot.rules d) with
        | Ok rs -> rs
        | Error e ->
          Printf.eprintf "depot ruleset unreadable (%s); building one instead\n"
            e;
          build_ruleset builtin_only rules_file)
      | _ -> build_ruleset builtin_only rules_file
    in
    let trace =
      match trace_file with Some _ -> Some (Obs.Trace.create ()) | None -> None
    in
    let ledger = if ledger_on then Some (Perf.Ledger.create ()) else None in
    (* One scope serves --perf and the hot-block views (--profile,
       --flamegraph, post-mortem dumps) alike. *)
    let scope =
      if perf_out <> None || profile_top > 0 || flamegraph_out <> None then
        Some (Perf.Scope.create ())
      else None
    in
    match replay_file with
    | Some path -> exit (do_replay ruleset shadow_depth quarantine_threshold path)
    | None ->
      let sys, image =
        match restore_file with
        | Some path ->
          (* The snapshot dictates machine shape; the CLI must supply
             the same ruleset the original run used. *)
          let snap = Snapshot.load_file path in
          let mode = D.System.snapshot_mode snap in
          let inject = D.System.snapshot_injector snap in
          let sys =
            D.System.create
              ~ram_kib:(D.System.snapshot_ram_kib snap)
              ~ruleset ?inject ~shadow_depth ~quarantine_threshold ?trace
              ?ledger ?scope mode
          in
          D.System.restore sys snap;
          (sys, None)
        | None ->
          let iters = max 1 (target / W.insns_per_iteration spec) in
          let user = W.generate spec ~iterations:iters in
          let image = K.build ~timer_period:timer ~user_program:user () in
          let sys =
            D.System.create ~ruleset ?inject ~shadow_depth ~quarantine_threshold
              ?trace ?ledger ?scope mode
          in
          K.load image (fun base words -> D.System.load_image sys base words);
          (sys, Some image)
      in
      (* Warm boot: install depot code into the live cache. Any
         incompatibility (mode, ruleset digest, hot threshold, rung) or
         undecodable payload is a typed error and a cold start — never
         a crash. *)
      (match depot_loaded with
      | None -> ()
      | Some d -> (
        match D.System.depot_install sys d with
        | n ->
          Format.printf "depot: generation %d, %d recipes installed at boot@."
            (Depot.generation d) n
        | exception Depot.Depot_error { section; reason } ->
          Printf.eprintf
            "depot incompatible (section %s: %s); falling back to cold start\n"
            section reason));
      let postmortems = ref 0 in
      let on_postmortem =
        match postmortem_dir with
        | None -> None
        | Some dir ->
          Some
            (fun ~reason dump ->
              incr postmortems;
              let path =
                Filename.concat dir (Printf.sprintf "postmortem-%d.snap" !postmortems)
              in
              Snapshot.save_file path dump;
              Format.printf "post-mortem (%s) dumped to %s@." reason path)
      in
      let max_guest_insns =
        match budget with Some b -> b | None -> 60 * target
      in
      (* Periodic metrics ride the checkpoint mechanism: when only
         --metrics-every is given it sets the checkpoint cadence; an
         explicit --checkpoint-every wins and metrics follow it. *)
      (* The metrics stream is built in a temp file and renamed into
         place only on clean completion, so a run killed mid-write can
         never leave a half-line JSONL for dbt_analyze to choke on. *)
      let metrics_oc =
        match metrics_out with
        | Some p ->
          let tmp = p ^ ".tmp" in
          Some (open_out tmp, tmp, p)
        | None -> None
      in
      let last_metrics = ref (0, 0, 0) in
      let write_metrics () =
        match metrics_oc with
        | None -> ()
        | Some (oc, _, _) ->
          let s = D.System.stats sys in
          let pg, ph, ps = !last_metrics in
          last_metrics := (s.Stats.guest_insns, s.Stats.host_insns, s.Stats.sync_ops);
          output_string oc
            (Obs.Jsonx.obj
               [
                 ("at", Obs.Jsonx.int s.Stats.guest_insns);
                 ( "delta",
                   Obs.Jsonx.obj
                     [
                       ("guest_insns", Obs.Jsonx.int (s.Stats.guest_insns - pg));
                       ("host_insns", Obs.Jsonx.int (s.Stats.host_insns - ph));
                       ("sync_ops", Obs.Jsonx.int (s.Stats.sync_ops - ps));
                     ] );
                 ("stats", Stats.to_json s);
               ]);
          output_char oc '\n'
      in
      let effective_checkpoint_every =
        if checkpoint_every > 0 then checkpoint_every else metrics_every
      in
      let on_checkpoint =
        if Option.is_some metrics_oc && effective_checkpoint_every > 0 then
          Some (fun _snap -> write_metrics ())
        else None
      in
      let res =
        D.System.run ~max_guest_insns
          ~checkpoint_every:effective_checkpoint_every ?on_checkpoint ~watchdog
          ?on_postmortem sys
      in
      write_metrics ();
      (match metrics_oc with
      | Some (oc, tmp, p) ->
        close_out oc;
        Sys.rename tmp p
      | None -> ());
      let s = D.System.stats sys in
      let outcome =
        match res.T.Engine.reason with
        | `Halted c -> Printf.sprintf "halted (exit code %#x)" c
        | `Insn_limit -> "instruction limit reached"
        | `Deadline -> "deadline reached"
        | `Livelock pc -> Printf.sprintf "livelocked at guest pc %#x" pc
      in
      Format.printf "benchmark  %s@.mode       %s@.outcome    %s@.@.%a@." bench
        (D.System.mode_name mode) outcome Stats.pp s;
      (match depot_loaded with
      | Some _ when Option.is_some sys.D.System.depot ->
        let installed, pending = D.System.depot_coverage sys in
        Format.printf "depot coverage: %d recipes installed, %d pending@."
          installed pending
      | _ -> ());
      (match sys.D.System.rt.T.Runtime.inject with
      | Some inj -> Format.printf "@.%a@." Repro_faultinject.Faultinject.pp inj
      | None -> ());
      (match sys.D.System.rule_translator with
      | Some tr ->
        let st = D.Translator_rule.state tr in
        Format.printf "rule-covered insns (static) %d@.fallback insns (static)     %d@."
          st.D.Translator_rule.rule_covered st.D.Translator_rule.fallback;
        if shadow_depth > 0 then
          Format.printf
            "blacklisted PCs             %d@.quarantined rules           %d@."
            (Repro_rules.Ruleset.Ids.cardinal st.D.Translator_rule.blacklist)
            (Repro_rules.Ruleset.quarantined_count ruleset)
      | None -> ());
      (match scope with
      | Some sc when profile_top > 0 ->
        Format.printf "@.--- hot translation blocks ---@.%a@."
          (Perf.Scope.pp_blocks ~top:profile_top) sc;
        (match Perf.Scope.top_blocks 1 sc with
        | [ hottest ] ->
          Format.printf "@.hottest block:@.%a@." Perf.Scope.pp_disasm hottest
        | _ -> ())
      | Some _ | None -> ());
      if dump_tbs > 0 then begin
        Format.printf "@.--- first %d translation blocks ---@." dump_tbs;
        (* plain TBs first, then the superblocks fused from them *)
        List.iteri
          (fun i (tb : T.Tb.t) ->
            if i < dump_tbs then begin
              Format.printf "@.%s %d at guest pc %#x (%s, %d guest insns%s):@."
                (if T.Tb.is_region tb then "Region" else "TB")
                tb.T.Tb.id tb.T.Tb.guest_pc
                (if tb.T.Tb.privileged then "kernel" else "user")
                tb.T.Tb.guest_len
                (if T.Tb.is_region tb then
                   "; fused from TBs "
                   ^ String.concat ", "
                       (Array.to_list (Array.map string_of_int tb.T.Tb.region_ids))
                 else "");
              Array.iter
                (fun insn -> Format.printf "  %a@." Repro_arm.Insn.pp insn)
                tb.T.Tb.guest_insns;
              Format.printf "%a@." Repro_x86.Prog.pp tb.T.Tb.prog
            end)
          (T.Tb.Cache.to_list sys.D.System.cache
          @ T.Tb.Cache.regions_list sys.D.System.cache)
      end;
      (match ledger with
      | Some l ->
        Format.printf "@.--- coordination ledger (paper Fig. 17) ---@.@[<v>%a@]@."
          Perf.Ledger.pp_report l
      | None -> ());
      (* Coverage views assert the tier partition invariant as they
         are built; both are read-only over the stats table. *)
      if coverage then
        Format.printf "@.--- translation-quality observatory ---@.@[<v>%a@]@."
          Cov.Report.pp (D.System.coverage_report sys);
      (match coverage_out with
      | Some path ->
        Atomicio.write path (Cov.Report.to_json (D.System.coverage_report sys) ^ "\n");
        Format.printf "@.coverage report written to %s@." path
      | None -> ());
      (match (trace, trace_file) with
      | Some tr, Some path ->
        Atomicio.write_channel path (fun oc ->
            match trace_format with
            | "chrome" -> Obs.Trace.write_chrome oc tr
            | _ -> Obs.Trace.write_jsonl oc tr);
        Format.printf "@.trace: %d events captured (%d dropped), %s written to %s@."
          (Obs.Trace.total tr) (Obs.Trace.dropped tr) trace_format path
      | _ -> ());
      (match (scope, perf_out) with
      | Some sc, Some path ->
        Atomicio.write path
          (Obs.Jsonx.obj
             [
               ("perf", Perf.Scope.to_json sc);
               ("costs", T.Costs.to_json ());
               ("stats", Stats.to_json s);
             ]
          ^ "\n");
        Format.printf "@.perf report written to %s@." path
      | _ -> ());
      (match (scope, flamegraph_out) with
      | Some sc, Some path ->
        let symbolize =
          match image with
          | Some img -> fun pc -> K.symbolize img pc
          | None -> fun _ -> "?" (* restored runs carry no symbol table *)
        in
        let frames (b : Perf.Scope.block) =
          [
            D.System.mode_name mode;
            (if b.Perf.Scope.privileged then "kernel" else "user");
            symbolize b.Perf.Scope.pc;
            (* superblocks get their own frame kind so region time is
               separable from the head TB's pre-fusion executions *)
            Printf.sprintf
              (if b.Perf.Scope.region then "region_0x%08x" else "tb_0x%08x")
              b.Perf.Scope.pc;
          ]
        in
        Atomicio.write_channel path (fun oc ->
            Perf.Flame.write_folded oc (Perf.Scope.flame sc ~frames));
        Format.printf "@.flamegraph (collapsed stacks) written to %s@." path
      | _ -> ());
      (match stats_json with
      | Some path ->
        Atomicio.write path
          (Obs.Jsonx.obj
             ([
                ("meta", Obs.Jsonx.str "dbt-stats");
                ("stats", Stats.to_json s);
                ("outcome", Obs.Jsonx.str outcome);
                ( "uart_digest",
                  Obs.Jsonx.str
                    (Digest.to_hex (Digest.string (D.System.uart_output sys))) );
              ]
             @ (match (scope, perf_out) with
               | Some sc, Some _ ->
                 [ ("perf", Perf.Scope.to_json sc); ("costs", T.Costs.to_json ()) ]
               | _ -> [])
             @ (match ledger with
               | Some l -> [ ("ledger", Perf.Ledger.to_json l) ]
               | None -> [])
             @ (match (depot_loaded, sys.D.System.depot) with
               | Some _, Some _ ->
                 let installed, pending = D.System.depot_coverage sys in
                 [ ( "depot",
                     Obs.Jsonx.obj
                       [
                         ("installed", Obs.Jsonx.int installed);
                         ("pending", Obs.Jsonx.int pending);
                       ] );
                 ]
               | _ -> [])
             @
             match trace with
             | Some tr ->
               [ ( "trace",
                   Obs.Jsonx.obj
                     [
                       ("total", Obs.Jsonx.int (Obs.Trace.total tr));
                       ("dropped", Obs.Jsonx.int (Obs.Trace.dropped tr));
                     ] );
               ]
             | None -> [])
          ^ "\n")
      | None -> ());
      (match save_file with
      | Some path ->
        Snapshot.save_file path (D.System.snapshot sys);
        Format.printf "@.machine snapshot saved to %s@." path
      | None -> ());
      (* Self-repair write-back: depot-served TBs that shadow
         verification invalidated this run are quarantined in the depot
         itself, so no later warm boot replays them. Only rewrite when
         something actually grew. *)
      (match (depot_load, depot_loaded, depot_save) with
      | Some dir, Some d, None ->
        let poisoned = D.System.depot_poisoned sys in
        if poisoned <> [] && Depot.quarantine_pcs d poisoned then begin
          match Depot.save ?inject ~dir d with
          | g ->
            Format.printf
              "depot: quarantined %d poisoned PC(s), generation %d written@."
              (List.length poisoned) g
          | exception Depot.Depot_error { section; reason } ->
            Printf.eprintf "depot quarantine write-back failed (%s: %s)\n"
              section reason
        end
      | _ -> ());
      (match depot_save with
      | Some dir -> (
        match
          let d = D.System.depot_capture sys in
          (* carry forward quarantines learned this run (and inherited
             ones, when re-saving over a loaded depot) *)
          let poisoned = D.System.depot_poisoned sys in
          let inherited =
            match depot_loaded with
            | Some prev -> Depot.quarantined_pcs prev
            | None -> []
          in
          ignore (Depot.quarantine_pcs d (poisoned @ inherited));
          Depot.save ?inject ~dir d
        with
        | g ->
          Format.printf "depot saved to %s (generation %d)@." dir g
        | exception Depot.Depot_error { section; reason } ->
          Printf.eprintf "cannot save depot to %s (section %s: %s)\n" dir
            section reason;
          exit exit_depot)
      | None -> ());
      (match res.T.Engine.reason with
      | `Livelock _ -> exit exit_livelock
      | `Halted _ | `Insn_limit | `Deadline -> ()))

let run_protected bench mode target budget timer builtin_only rules_file
    dump_tbs profile_top inject_seed inject_rate surface_faults shadow_depth
    quarantine_threshold checkpoint_every save_file restore_file replay_file
    watchdog postmortem_dir trace_file trace_format metrics_out metrics_every
    ledger_on stats_json perf_out flamegraph_out depot_save depot_load
    depot_verify coverage coverage_out =
  try
    run bench mode target budget timer builtin_only rules_file dump_tbs
      profile_top inject_seed inject_rate surface_faults shadow_depth
      quarantine_threshold checkpoint_every save_file restore_file replay_file
      watchdog postmortem_dir trace_file trace_format metrics_out metrics_every
      ledger_on stats_json perf_out flamegraph_out depot_save depot_load
      depot_verify coverage coverage_out
  with
  | T.Runtime.Load_error addr ->
    Printf.eprintf "image load error: physical address %#x is outside guest RAM\n"
      addr;
    exit exit_load
  | Snapshot.Corrupt msg ->
    Printf.eprintf "corrupt snapshot: %s\n" msg;
    exit exit_corrupt
  | Snapshot.Load_error { section; reason } ->
    Printf.eprintf "corrupt snapshot: section %s: %s\n" section reason;
    exit exit_corrupt
  | Depot.Depot_error { section; reason } ->
    (* Backstop: every depot path above already degrades or exits with
       its own message; anything that still escapes is a depot bug, not
       a crash. *)
    Printf.eprintf "depot error: section %s: %s\n" section reason;
    exit exit_depot

let bench_arg =
  let doc = "Benchmark name (a CINT2006 row of Table I)." in
  Arg.(value & pos 0 string "gcc" & info [] ~docv:"BENCH" ~doc)

let mode_arg =
  let doc = "Engine: one of " ^ String.concat ", " mode_names ^ "." in
  Arg.(value & opt string "full" & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let target_arg =
  let doc = "Target dynamic guest instructions." in
  Arg.(value & opt int 200_000 & info [ "n"; "target" ] ~docv:"INSNS" ~doc)

let budget_arg =
  let doc =
    "Stop after retiring $(docv) guest instructions this run (default 60 times the \
     target: effectively until the guest halts). With --restore the budget counts \
     from the resume point, so an interrupted run plus its continuation retire the \
     same total as an uninterrupted one."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"INSNS" ~doc)

let timer_arg =
  let doc = "Timer period in guest instructions (0 = no IRQs)." in
  Arg.(value & opt int 5_000 & info [ "timer" ] ~docv:"PERIOD" ~doc)

let builtin_arg =
  let doc = "Use only the hand-written core rule set (skip learning)." in
  Arg.(value & flag & info [ "builtin-rules" ] ~doc)

let rules_arg =
  let doc = "Load the rule set from $(docv) (see repro-rulegen -o)." in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"FILE" ~doc)

let dump_arg =
  let doc =
    "Dump the first $(docv) translation blocks (guest + host code): plain TBs, then \
     the superblock regions fused from them."
  in
  Arg.(value & opt int 0 & info [ "dump-tbs" ] ~docv:"N" ~doc)

let profile_arg =
  let doc =
    "Profile per-TB execution and print the $(docv) hottest blocks by attributed host \
     instructions, plus the hottest block's guest disassembly."
  in
  Arg.(value & opt int 0 & info [ "p"; "profile" ] ~docv:"N" ~doc)

let inject_arg =
  let doc =
    "Arm deterministic fault injection with PRNG seed $(docv) (bus errors, spurious TLB \
     and TB-cache invalidations, corrupted page walks, spurious interrupts, corrupted \
     rule output)."
  in
  Arg.(value & opt (some int) None & info [ "inject" ] ~docv:"SEED" ~doc)

let inject_rate_arg =
  let doc = "Per-site fault probability (with --inject)." in
  Arg.(value & opt float 0.001 & info [ "inject-rate" ] ~docv:"RATE" ~doc)

let surface_arg =
  let doc =
    "Let injected bus faults surface as guest-visible bus errors instead of being \
     absorbed (with --inject)."
  in
  Arg.(value & flag & info [ "surface-faults" ] ~doc)

let shadow_arg =
  let doc =
    "Shadow-verify the first $(docv) executions of each rule-translated block against \
     the reference interpreter (rules modes only; 0 disables)."
  in
  Arg.(value & opt int 0 & info [ "shadow" ] ~docv:"N" ~doc)

let quarantine_arg =
  let doc = "Divergence strikes that quarantine a rule (with --shadow)." in
  Arg.(value & opt int 2 & info [ "quarantine-threshold" ] ~docv:"N" ~doc)

let checkpoint_arg =
  let doc =
    "Take a crash-consistent machine checkpoint every $(docv) retired guest \
     instructions (0 disables periodic checkpoints; one is still taken when the run \
     stops at the instruction limit)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"INSNS" ~doc)

let save_arg =
  let doc =
    "After the run, save the machine snapshot (with its resume cursor when the run \
     stopped at the instruction limit) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let restore_arg =
  let doc =
    "Restore the machine from snapshot $(docv) and continue executing (supply the \
     same rule-set flags the saved run used)."
  in
  Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"FILE" ~doc)

let replay_arg =
  let doc =
    "Replay post-mortem dump $(docv): restore its checkpoint, re-execute with the \
     watchdog off, and check the recorded events reproduce. Exits 6 on mismatch."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let watchdog_arg =
  let doc =
    "Livelock watchdog: on host-code fuel exhaustion, roll back to the last \
     checkpoint and re-execute under a degraded engine (rules, then baseline, then \
     single-instruction TBs) instead of failing."
  in
  Arg.(value & opt bool true & info [ "watchdog" ] ~docv:"BOOL" ~doc)

let postmortem_arg =
  let doc =
    "Dump a replayable snapshot + event journal into $(docv) whenever shadow \
     verification repairs a divergence or the watchdog catches a livelock."
  in
  Arg.(value & opt (some string) None & info [ "postmortem-dir" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Capture a structured event trace (translations, chains, IRQs, TLB \
     misses, sync restores, shadow replays, watchdog and snapshot activity; \
     timestamps are retired guest instructions) and write it to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace output format: jsonl (one event object per line) or chrome \
     (Chrome trace-event JSON, loadable in Perfetto / chrome://tracing)."
  in
  Arg.(value & opt string "jsonl" & info [ "trace-format" ] ~docv:"FMT" ~doc)

let metrics_out_arg =
  let doc =
    "Append a machine-readable metrics snapshot (full statistics plus \
     interval deltas, JSONL) to $(docv) at every checkpoint and at the end \
     of the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_every_arg =
  let doc =
    "Emit periodic metrics every $(docv) retired guest instructions (sets \
     the checkpoint cadence when --checkpoint-every is not given; with it, \
     metrics follow the checkpoint cadence)."
  in
  Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"INSNS" ~doc)

let ledger_arg =
  let doc =
    "Attribute coordination savings (sync ops and Sync-tagged host \
     instructions removed) to each optimization pass, statically per \
     translation and dynamically per TB execution, and print the per-pass \
     table (the paper's Fig. 17 breakdown)."
  in
  Arg.(value & flag & info [ "ledger" ] ~doc)

let stats_json_arg =
  let doc =
    "Write the final statistics (plus the ledger and trace summaries when \
     enabled) as one JSON object to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let perf_arg =
  let doc =
    "Attach the performance scope — deterministic per-phase and per-region \
     host-instruction attribution plus IRQ-latency, chain-latency and \
     checkpoint-interval histograms, all on the retired-guest-insn clock — \
     and write its JSON report (with the cost model and final statistics) \
     to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "perf" ] ~docv:"FILE" ~doc)

let flamegraph_arg =
  let doc =
    "Profile per-TB hotness and write a collapsed-stack (folded) flamegraph \
     — mode;privilege;symbol;tb;phase frames weighted by attributed host \
     instructions — to $(docv), ready for flamegraph.pl, inferno or \
     speedscope."
  in
  Arg.(value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE" ~doc)

let depot_save_arg =
  let doc =
    "After the run, save a persistent AOT depot (learned rule set + \
     translated code + health state) into directory $(docv) with a \
     crash-atomic generation commit, so later runs of the same \
     configuration can boot warm with --depot-load."
  in
  Arg.(value & opt (some string) None & info [ "depot-save" ] ~docv:"DIR" ~doc)

let depot_load_arg =
  let doc =
    "Warm-boot from the AOT depot in directory $(docv): adopt its embedded \
     rule set and pre-install its translated code so the run starts \
     with a hot code cache. An unreadable or incompatible depot degrades \
     to a normal cold start (exit code unaffected)."
  in
  Arg.(value & opt (some string) None & info [ "depot-load" ] ~docv:"DIR" ~doc)

let depot_verify_arg =
  let doc =
    "Verify the integrity and structure of the AOT depot in directory \
     $(docv) without running anything, then exit: 0 when sound, 7 naming \
     the damaged section otherwise."
  in
  Arg.(value & opt (some string) None & info [ "depot-verify" ] ~docv:"DIR" ~doc)

let coverage_arg =
  let doc =
    "Print the translation-quality observatory report: per-tier \
     retirement partition, opcode-class coverage matrix, per-rule \
     utilization/payoff ledger and the ranked rule-learning \
     opportunity queue. Purely observational — the run is \
     bit-identical with or without it."
  in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let coverage_out_arg =
  let doc = "Write the coverage report as one JSON document to $(docv)." in
  Arg.(value & opt (some string) None & info [ "coverage-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "run one benchmark under one DBT engine" in
  Cmd.v
    (Cmd.info "repro-dbt-run" ~doc)
    Term.(
      const run_protected $ bench_arg $ mode_arg $ target_arg $ budget_arg
      $ timer_arg $ builtin_arg $ rules_arg $ dump_arg $ profile_arg $ inject_arg
      $ inject_rate_arg $ surface_arg $ shadow_arg $ quarantine_arg
      $ checkpoint_arg $ save_arg $ restore_arg $ replay_arg $ watchdog_arg
      $ postmortem_arg $ trace_arg $ trace_format_arg $ metrics_out_arg
      $ metrics_every_arg $ ledger_arg $ stats_json_arg
      $ perf_arg $ flamegraph_arg $ depot_save_arg $ depot_load_arg
      $ depot_verify_arg $ coverage_arg $ coverage_out_arg)

let () = exit (Cmd.eval cmd)
