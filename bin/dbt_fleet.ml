(* Chaos-drill driver: boot one workload to a warm point, snapshot it,
   then serve requests from a supervised fleet restored from that
   snapshot while a deterministic fault plan sabotages a chosen subset
   of the machines.

   Everything in the report except the "volatile" object is a function
   of (--seed, workload, counts): two same-seed drills must produce
   byte-identical JSON after `jq 'del(.volatile)'`.

   Exit codes: 0 success, 2 usage error, 5 a surviving machine
   diverged from the fault-free reference, 6 the whole fleet died,
   7 --depot-save could not commit, 8 an --slo error budget burned. *)

module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Fi = Repro_faultinject.Faultinject
module R = Repro_resilience
module Par = Repro_parallel
module Obs = Repro_observe
module Tel = Repro_telemetry
module Depot = Repro_aotcache.Depot
module Atomicio = Repro_common.Atomicio
open Cmdliner

let exit_diverged = 5
let exit_fleet_dead = 6
let exit_depot = 7
let exit_slo = 8

let mode_names = List.map fst D.System.modes

let mode_of_string s =
  match List.assoc_opt s D.System.modes with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown mode %s (%s)" s (String.concat "|" mode_names))

(* Boot the workload on a pristine machine (injector present but every
   site at rate 0, so the warm phase is fault-free) and capture the
   warm snapshot all fleet machines serve from. With [depot], the boot
   machine installs the depot's recipes first, so the whole fleet
   inherits the persistent cache through the one shared snapshot; an
   incompatible depot degrades to a cold warm-up. Returns the boot
   machine too, so --depot-save can capture its cache after the warm
   phase. *)
let warm_snapshot mode ?depot ~bench ~target ~timer ~warm ~shadow_depth
    ~quarantine_threshold () =
  let spec = W.find bench in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:timer ~user_program:user () in
  let inject = Fi.create ~seed:1 ~rate:0.0 ~behavior:Fi.Surface () in
  let ruleset =
    match (depot, mode) with
    | Some d, D.System.Rules _ when Depot.rules d <> "" -> (
      match Repro_rules.Serialize.load (Depot.rules d) with
      | Ok rs -> Some rs
      | Error _ -> None)
    | _ -> None
  in
  let sys =
    D.System.create ?ruleset ~inject ~shadow_depth ~quarantine_threshold mode
  in
  K.load image (fun base words -> D.System.load_image sys base words);
  (match depot with
  | None -> ()
  | Some d -> (
    match D.System.depot_install sys d with
    | n ->
      Format.printf "depot: generation %d, %d recipes installed at boot@."
        (Depot.generation d) n
    | exception Depot.Depot_error { section; reason } ->
      Printf.eprintf
        "depot incompatible (section %s: %s); fleet boots cold\n" section
        reason));
  match
    (D.System.run ~max_guest_insns:warm ~checkpoint_every:warm sys)
      .Repro_tcg.Engine.reason
  with
  | `Insn_limit -> Ok (sys, D.System.snapshot sys)
  | `Halted _ ->
    Error
      (Printf.sprintf
         "workload finished within the warm phase (%d insns) — lower --warm \
          or raise --target"
         warm)
  | `Livelock _ | `Deadline -> Error "warm boot failed"

let run_drill machines faulty seed requests bench mode_name target warm timer
    deadline_opt retry_budget min_healthy checkpoint_every fault_rate
    tb_flush_rate rule_corrupt_rate shadow_depth quarantine_threshold domains
    json_out trace_file depot_save depot_load telemetry_dir telemetry_every
    slo_file slo_report =
  let t0 = Sys.time () in
  let usage fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  if machines <= 0 then usage "--machines must be positive";
  if domains < 1 then usage "--domains must be at least 1";
  let recommended = Domain.recommended_domain_count () in
  let eff_domains =
    (* clamp, don't fail: the report is domain-count-invariant, so
       running 4 requested domains on a 2-core box changes nothing but
       scheduling pressure — still, don't oversubscribe silently *)
    if domains > recommended then begin
      Printf.eprintf
        "warning: --domains %d exceeds the %d recommended domain(s) on this \
         host; clamping\n"
        domains recommended;
      recommended
    end
    else domains
  in
  if faulty < 0 || faulty > machines then
    usage "--faulty must be within [0, --machines]";
  if min_healthy < 0 || min_healthy > machines then
    usage "--min-healthy must be within [0, --machines]";
  if requests < 0 then usage "--requests must be non-negative";
  if fault_rate < 0. || tb_flush_rate < 0. || rule_corrupt_rate < 0. then
    usage "fault rates must be non-negative";
  match mode_of_string mode_name with
  | Error e -> usage "%s" e
  | Ok mode -> (
    (match W.find bench with
    | _ -> ()
    | exception Not_found ->
      usage "unknown benchmark %s (one of: %s)" bench
        (String.concat ", " (List.map (fun (s : W.spec) -> s.W.name) W.cint2006)));
    let deadline =
      match deadline_opt with Some d -> d | None -> 10 * target
    in
    let policy =
      {
        R.Supervisor.default_policy with
        R.Supervisor.deadline;
        retry_budget;
        checkpoint_every;
        shadow_depth;
        quarantine_threshold;
      }
    in
    let depot_loaded =
      match depot_load with
      | None -> None
      | Some dir -> (
        match Depot.load dir with
        | d -> Some d
        | exception Depot.Depot_error { section; reason } ->
          Printf.eprintf
            "depot %s unusable (section %s: %s); fleet boots cold\n" dir
            section reason;
          None)
    in
    match
      warm_snapshot mode ?depot:depot_loaded ~bench ~target ~timer ~warm
        ~shadow_depth ~quarantine_threshold ()
    with
    | Error e -> usage "%s" e
    | Ok (boot_sys, base) ->
      let plan =
        Fi.Plan.make ~seed ~machines ~faulty
          [
            (Fi.Bus_read, fault_rate);
            (Fi.Bus_write, fault_rate);
            (* forced cache flushes make the engine re-translate hot
               code mid-request with faults armed — without them the
               warm snapshot's TB set already covers the workload and
               rule corruption would never get a chance to fire *)
            (Fi.Tb_flush, tb_flush_rate);
            (Fi.Rule_corrupt, rule_corrupt_rate);
          ]
      in
      let slo =
        (* parse the SLO file before the (slow) drill so a typo fails
           in seconds, not minutes *)
        match slo_file with
        | None -> None
        | Some path -> (
          match Tel.Slo.load path with
          | s -> Some s
          | exception Tel.Slo.Slo_error msg -> usage "--slo: %s" msg
          | exception Sys_error msg -> usage "--slo: %s" msg)
      in
      if telemetry_every <= 0 then usage "--telemetry-every must be positive";
      let fleet =
        R.Fleet.create ~plan
          ~config:{ R.Fleet.machines; min_healthy; policy }
          base
      in
      (let installed, pending = D.System.depot_coverage boot_sys in
       R.Fleet.note_boot_depot fleet ~installed ~pending);
      (* the collector is always attached — it only reads the fleet's
         always-on observability surface, so the drill (and its report)
         is bit-identical whether or not --telemetry exports it *)
      let collector = Tel.Collector.create ~every:telemetry_every fleet in
      (* one dispatcher for every --domains value (1 included): the
         epoch-barrier parallel dispatcher, whose report is invariant
         in the domain count — that invariance is CI's identity gate *)
      Par.Parfleet.run fleet ~domains:eff_domains
        ~after_each:(fun () -> Tel.Collector.tick collector)
        ~requests;
      Tel.Collector.finish collector;
      (* serialize before final verification: the time-series and the
         anomaly scores describe the drill, not the verify re-runs *)
      let telemetry_json = Tel.Collector.to_json collector in
      let all_verified = R.Fleet.final_verify fleet in
      (match trace_file with
      | Some path ->
        Atomicio.write_channel path (fun oc ->
            Obs.Trace.write_jsonl oc (R.Fleet.trace fleet))
      | None -> ());
      (match telemetry_dir with
      | None -> ()
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Atomicio.write (Filename.concat dir "series.json")
          (telemetry_json ^ "\n");
        (* one merged Perfetto timeline: the fleet's dispatch track
           plus one track per machine, joined by the req:assign /
           req:begin request ids *)
        Atomicio.write_channel (Filename.concat dir "timeline.json")
          (fun oc ->
            Obs.Trace.write_chrome_streams oc
              (("fleet", R.Fleet.trace fleet)
              :: List.init machines (fun i ->
                     ( Printf.sprintf "machine%d" i,
                       R.Supervisor.trace_ring (R.Fleet.supervisor fleet i) ))));
        Format.printf "telemetry: series.json and timeline.json in %s@." dir);
      (* Persist what the drill learned. --depot-save captures the boot
         machine's warm cache as a fresh depot; with --depot-load (and
         no save) the loaded depot is rewritten in place only when the
         fleet breaker demoted rules it didn't already know about. In
         both cases the breaker verdicts ride the health section. *)
      (match depot_save with
      | Some dir -> (
        match
          let d = D.System.depot_capture boot_sys in
          ignore (R.Fleet.depot_writeback fleet d);
          (match depot_loaded with
          | Some prev ->
            ignore (Depot.quarantine_pcs d (Depot.quarantined_pcs prev))
          | None -> ());
          Depot.save ~dir d
        with
        | g -> Format.printf "depot saved to %s (generation %d)@." dir g
        | exception Depot.Depot_error { section; reason } ->
          Printf.eprintf "cannot save depot to %s (section %s: %s)\n" dir
            section reason;
          exit exit_depot)
      | None -> (
        match (depot_load, depot_loaded) with
        | Some dir, Some d -> (
          match
            if R.Fleet.depot_writeback fleet d then Some (Depot.save ~dir d)
            else None
          with
          | Some g ->
            Format.printf
              "depot: %d breaker-quarantined rule(s) written back, generation \
               %d@."
              (List.length (R.Fleet.quarantined_rules fleet))
              g
          | None -> ()
          | exception Depot.Depot_error { section; reason } ->
            Printf.eprintf "depot quarantine write-back failed (%s: %s)\n"
              section reason)
        | _ -> ()));
      let report =
        Obs.Jsonx.obj
          [
            ("seed", Obs.Jsonx.int seed);
            ("bench", Obs.Jsonx.str bench);
            ("mode", Obs.Jsonx.str mode_name);
            ("requests", Obs.Jsonx.int requests);
            ("deadline", Obs.Jsonx.int deadline);
            ("retry_budget", Obs.Jsonx.int retry_budget);
            ("fleet", R.Fleet.metrics_json fleet);
            ( "volatile",
              (* domain facts are host-environment facts (the clamp
                 depends on the runner's core count), so they live
                 beside wall-clock under the identity diff's del key *)
              Obs.Jsonx.obj
                [
                  ("wall_s", Obs.Jsonx.float (Sys.time () -. t0));
                  ( "domains",
                    Obs.Jsonx.obj
                      [
                        ("requested", Obs.Jsonx.int domains);
                        ("effective", Obs.Jsonx.int eff_domains);
                        ("recommended", Obs.Jsonx.int recommended);
                      ] );
                ] );
          ]
      in
      (match json_out with
      | None -> print_endline report
      | Some path -> Atomicio.write path (report ^ "\n"));
      Format.printf
        "fleet drill: %d/%d served, %d timed out, %d shed, %d dead machine(s), \
         %d restart(s), %d breaker trip(s), availability %.3f@."
        (R.Fleet.served_ok fleet) (R.Fleet.offered fleet)
        (R.Fleet.timed_out fleet) (R.Fleet.shed fleet)
        (machines - R.Fleet.alive_count fleet)
        (R.Fleet.restarts fleet) (R.Fleet.breaker_trips fleet)
        (R.Fleet.availability fleet);
      (* the SLO verdict is computed (and its report written) even when
         a harder failure wins the exit code; the report is a separate
         artifact so the drill report stays identical with and without
         --slo *)
      let slo_burned =
        match slo with
        | None -> false
        | Some s ->
          let objectives = Tel.Slo.evaluate s fleet in
          List.iter
            (fun o ->
              Format.printf "slo %-18s target %-12g actual %-12g %s@."
                o.Tel.Slo.name o.Tel.Slo.target o.Tel.Slo.actual
                (if o.Tel.Slo.burned then "BURNED" else "ok"))
            objectives;
          (match slo_report with
          | Some path ->
            Atomicio.write path (Tel.Slo.report_json objectives ^ "\n")
          | None -> ());
          Tel.Slo.burned objectives
      in
      if not all_verified then begin
        Format.printf "FAIL: a surviving machine diverged from the reference@.";
        exit_diverged
      end
      else if R.Fleet.alive_count fleet = 0 then begin
        Format.printf "FAIL: every machine died@.";
        exit_fleet_dead
      end
      else if slo_burned then begin
        Format.printf "FAIL: an SLO error budget burned@.";
        exit_slo
      end
      else 0)

let machines_arg =
  let doc = "Fleet size: machines serving from the shared warm snapshot." in
  Arg.(value & opt int 4 & info [ "machines" ] ~docv:"N" ~doc)

let faulty_arg =
  let doc =
    "How many machines the chaos plan sabotages (chosen deterministically \
     from --seed)."
  in
  Arg.(value & opt int 2 & info [ "faulty" ] ~docv:"K" ~doc)

let seed_arg =
  let doc =
    "Fleet seed: fixes the faulty subset, every per-machine injector stream \
     and every backoff jitter draw — the whole drill replays from it."
  in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let requests_arg =
  let doc = "Workload requests offered to the fleet." in
  Arg.(value & opt int 24 & info [ "requests" ] ~docv:"N" ~doc)

let bench_arg =
  let doc = "Benchmark workload each request runs (see repro-dbt-run)." in
  Arg.(value & pos 0 string "gcc" & info [] ~docv:"BENCH" ~doc)

let mode_arg =
  let doc = "Engine mode: one of " ^ String.concat ", " mode_names ^ "." in
  Arg.(value & opt string "full" & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let target_arg =
  let doc = "Guest instructions of workload per request (before warm)." in
  Arg.(value & opt int 120_000 & info [ "n"; "target" ] ~docv:"INSNS" ~doc)

let warm_arg =
  let doc =
    "Guest instructions executed fault-free before the warm snapshot is \
     taken."
  in
  Arg.(value & opt int 20_000 & info [ "warm" ] ~docv:"INSNS" ~doc)

let timer_arg =
  let doc = "Platform timer period in guest instructions." in
  Arg.(value & opt int 5_000 & info [ "timer" ] ~docv:"PERIOD" ~doc)

let deadline_arg =
  let doc =
    "Per-request deadline in retired guest instructions (default 10 x \
     --target)."
  in
  Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"INSNS" ~doc)

let retry_arg =
  let doc = "Restarts allowed per request before the machine is killed." in
  Arg.(value & opt int 3 & info [ "retry-budget" ] ~docv:"N" ~doc)

let min_healthy_arg =
  let doc = "Shed requests when fewer machines are serving." in
  Arg.(value & opt int 1 & info [ "min-healthy" ] ~docv:"N" ~doc)

let checkpoint_arg =
  let doc = "Periodic-checkpoint interval (restart granularity)." in
  Arg.(value & opt int 4_000 & info [ "checkpoint-every" ] ~docv:"INSNS" ~doc)

let fault_rate_arg =
  let doc = "Bus read/write fault rate on the sabotaged machines." in
  Arg.(value & opt float 0.0002 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let tb_flush_rate_arg =
  let doc =
    "Forced translation-cache-flush rate on the sabotaged machines (flushes \
     force retranslation under injection, exposing rule corruption)."
  in
  Arg.(value & opt float 0.00005 & info [ "tb-flush-rate" ] ~docv:"RATE" ~doc)

let rule_rate_arg =
  let doc = "Rule-corruption rate on the sabotaged machines." in
  Arg.(
    value & opt float 0.002 & info [ "rule-corrupt-rate" ] ~docv:"RATE" ~doc)

let shadow_arg =
  let doc = "Shadow-verification depth for rule-translated TBs." in
  Arg.(value & opt int 4 & info [ "shadow" ] ~docv:"N" ~doc)

let quarantine_arg =
  let doc = "Per-rule strike limit before quarantine." in
  Arg.(value & opt int 2 & info [ "quarantine-threshold" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Serve across $(docv) OCaml domains (machines sharded by id, requests \
     dispatched in deterministic epochs). The drill report is byte-identical \
     for every domain count after `jq 'del(.volatile)'`. Values above the \
     host's recommended domain count are clamped with a warning; values \
     below 1 are a usage error."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Write the drill report (JSON) to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Write the fleet event trace (JSONL) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let depot_save_arg =
  let doc =
    "After the drill, save the boot machine's warm translation cache (plus \
     the breaker's quarantine verdicts) as a persistent AOT depot in \
     directory $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "depot-save" ] ~docv:"DIR" ~doc)

let depot_load_arg =
  let doc =
    "Boot the whole fleet warm from the AOT depot in directory $(docv): the \
     boot machine installs its recipes before the warm snapshot is taken, \
     so every fleet machine inherits the persistent cache. Rules the fleet \
     breaker quarantines during the drill are written back to the depot. \
     An unusable depot degrades to a cold fleet boot."
  in
  Arg.(value & opt (some string) None & info [ "depot-load" ] ~docv:"DIR" ~doc)

let telemetry_arg =
  let doc =
    "Write the fleet telemetry bundle to directory $(docv): series.json (the \
     merged per-machine time-series with anomaly scores, for repro-dbt-analyze \
     fleet) and timeline.json (one merged Perfetto/Chrome trace, one track \
     per machine plus the fleet dispatch track). Purely an export switch: the \
     drill and its report are bit-identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"DIR" ~doc)

let telemetry_every_arg =
  let doc = "Telemetry sampling interval in offered requests." in
  Arg.(value & opt int 4 & info [ "telemetry-every" ] ~docv:"N" ~doc)

let slo_arg =
  let doc =
    "Evaluate the drill against the SLO file $(docv) (JSON object with any of \
     p99_latency_max, availability_min, deadline_miss_rate_max, \
     breaker_trips_max; unknown keys are an error). A burned budget exits 8 \
     (divergence 5 and fleet death 6 take precedence)."
  in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"FILE" ~doc)

let slo_report_arg =
  let doc =
    "Write the SLO evaluation (JSON) to $(docv) — a separate artifact, never \
     merged into the drill report."
  in
  Arg.(value & opt (some string) None & info [ "slo-report" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "serve a workload from a self-healing fleet under chaos" in
  Cmd.v
    (Cmd.info "repro-dbt-fleet" ~doc)
    Term.(
      const run_drill $ machines_arg $ faulty_arg $ seed_arg $ requests_arg
      $ bench_arg $ mode_arg $ target_arg $ warm_arg $ timer_arg $ deadline_arg
      $ retry_arg $ min_healthy_arg $ checkpoint_arg $ fault_rate_arg
      $ tb_flush_rate_arg $ rule_rate_arg $ shadow_arg $ quarantine_arg
      $ domains_arg $ json_arg $ trace_arg $ depot_save_arg $ depot_load_arg
      $ telemetry_arg $ telemetry_every_arg $ slo_arg $ slo_report_arg)

let () = exit (Cmd.eval' cmd)
