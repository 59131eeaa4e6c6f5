(* The DBT benchmark: one workload, one seed, one run.

     bench.exe --workload steady|cold|fleet --seed N --seconds S
               --trace 0|1 [--nproc N] [--state-dir DIR] [--run-dir DIR]

   --trace 0 measures the end-to-end metrics with no tracing;
   --trace 1 spends half the time on an untraced pass (GC figures and
   the untraced half of the tracing overhead) and half on the traced
   pass that yields the per-layer metrics. The last stdout line is
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Every
   program output is checked against the reference interpreter.

   Exit codes: 0 ok, 1 an output differed from the reference (the
   result is printed with "correct": false), 2 usage, 3 a determinism
   or identity invariant broke (no result). A fleet request lost to
   injected faults counts in "failed" but is not a wrong output. See
   README.md. *)

module D = Repro_dbt
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Depot = Repro_aotcache.Depot
module Scope = Repro_perfscope.Scope
module Phase = Repro_perfscope.Phase
module Cov = Repro_covscope.Report

type workload = Steady | Cold | Fleet

let workloads = [ ("steady", Steady); ("cold", Cold); ("fleet", Fleet) ]

(* How a request boots: cold under an engine, or warm under the rules
   engine from the program's AOT depot. *)
type boot = Cold_boot of Progs.engine | Warm_boot

let boot_name = function
  | Cold_boot e -> Progs.engine_name e
  | Warm_boot -> "warm"

let steady_target = 300_000
let cold_target = 8_000
let setup_min_reps = 5
let setup_max_reps = 9
let setup_min_s = 1.5

(* ---------- the metric catalogue (mirrors BENCHMARK.json) ---------- *)

let end_to_end =
  [
    ("guest_mips", "Minsn/s");
    ("host_per_guest", "insn/insn");
    ("speedup_vs_qemu", "x");
    ("requests_per_s", "1/s");
    ("req_ms_p50", "ms");
    ("req_ms_p90", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let phase_metric p = "phase." ^ Phase.name p

let per_layer =
  [
    ("learn.ms", "ms");
    ("image.ms", "ms");
    ("reference.ms", "ms");
    ("translate.calls", "count");
    ("translate.ms", "ms");
    ("translate.us_per_call", "us");
    ("tcg.calls", "count");
    ("tcg.ms", "ms");
    ("region.offers", "count");
    ("region.formed", "count");
    ("region.yield", "ratio");
    ("region.ms", "ms");
    ("link.calls", "count");
    ("link.ms", "ms");
    ("enter.calls", "count");
    ("enter.ms", "ms");
    ("verify.calls", "count");
    ("verify.ms", "ms");
    ("engine.self_ms", "ms");
    ("engine.ns_per_host_insn", "ns");
  ]
  @ List.map (fun p -> (phase_metric p, "insn/insn")) Phase.all
  @ [
      ("stats.tb_translations", "count");
      ("stats.chained_jumps", "count");
      ("stats.engine_returns", "count");
      ("stats.tlb_misses", "count");
      ("stats.sync_per_guest", "insn/insn");
      ("coverage.rule_frac", "ratio");
      ("snapshot.capture_ms", "ms");
      ("snapshot.restore_ms", "ms");
      ("snapshot.bytes", "bytes");
      ("fleet.restarts", "count");
      ("fleet.checkpoints_per_request", "count");
      ("depot.load_ms", "ms");
      ("depot.install_ms", "ms");
      ("depot.installed", "count");
      ("depot.pending", "count");
      ("depot.bytes", "bytes");
      ("depot.capture_ms", "ms");
      ("depot.save_ms", "ms");
      ("depot.boot_speedup", "x");
      ("fleet.epoch_ms", "ms");
      ("fleet.domains", "count");
      ("fleet.timed_out", "count");
      ("fleet.shed", "count");
      ("fleet.breaker_trips", "count");
      ("gc.minor_words_per_guest_insn", "words/insn");
      ("gc.major_collections", "1/Minsn");
      ("gc.pause_ms", "ms/s");
      ("trace.overhead_frac", "ratio");
    ]

(* Print every metric of [catalogue] (0 where [values] lacks one: a
   layer the workload never enters), then the result line. *)
let emit ~catalogue ~values ~correct ~attempted ~failed =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else Util.fail "a metric is not finite"
  in
  let row (name, unit) =
    let v = Option.value (List.assoc_opt name values) ~default:0. in
    Printf.printf "%-32s %16.6f %s\n" name v unit;
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit
  in
  let rows = List.map row catalogue in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " rows)

(* ---------- set-up ---------- *)

type setup = {
  rules : Repro_rules.Rule.t list;
  progs : Progs.program array;
  items : (int * boot) array;  (** one round, in canonical order *)
  qemu_host : int array;  (** per program, the qemu baseline's host insns (steady) *)
  depots : string array;  (** per program, the depot directory (cold) *)
  layer_ms : (string * float) list;
}

let images = function
  | Steady ->
    List.map
      (fun n -> (n, Progs.cint_image n ~target:steady_target))
      [ "gcc"; "mcf"; "hmmer" ]
  | Cold | Fleet ->
    List.map
      (fun (s : W.spec) -> (s.W.name, Progs.cint_image s.W.name ~target:cold_target))
      W.cint2006
    @ List.map (fun (a : W.app) -> (a.W.app_name, Progs.app_image a ~iterations:1)) W.apps

let checked_run prog sys what =
  let res = D.System.run sys in
  if not (Progs.matches prog sys res) then
    Util.fail "%s: the %s run differs from the reference" prog.Progs.name what;
  D.System.stats sys

let setup workload ~run_dir ~rep =
  let ms = ref [] in
  let timed name f = Util.timed ms name f in
  let rules = timed "learn.ms" Progs.learned_rules in
  let imgs = timed "image.ms" (fun () -> images workload) in
  let progs, qemu_host =
    timed "reference.ms" (fun () ->
        let progs =
          Array.of_list (List.map (fun (n, img) -> Progs.reference n img) imgs)
        in
        (* cold measures its own qemu half; steady needs the qemu
           baseline for speedup_vs_qemu *)
        let qemu_host =
          if workload <> Steady then [||]
          else
            Array.map
              (fun p ->
                (checked_run p (Progs.machine rules Progs.Qemu p) "qemu baseline")
                  .Stats.host_insns)
              progs
        in
        (progs, qemu_host))
  in
  let depots =
    if workload <> Cold then [||]
    else begin
      let captured =
        timed "depot.capture_ms" (fun () ->
            Array.map
              (fun p ->
                let sys = Progs.machine rules Progs.Rules p in
                ignore (checked_run p sys "depot capture");
                D.System.depot_capture sys)
              progs)
      in
      timed "depot.save_ms" (fun () ->
          Array.mapi
            (fun i d ->
              let dir =
                Filename.concat run_dir
                  (Printf.sprintf "depot%d-%s" rep progs.(i).Progs.name)
              in
              ignore (Depot.save ~dir d);
              dir)
            captured)
    end
  in
  let items =
    match workload with
    | Cold ->
      Array.concat
        (List.init (Array.length progs) (fun i ->
             [| (i, Cold_boot Progs.Qemu); (i, Cold_boot Progs.Rules); (i, Warm_boot) |]))
    | _ -> Array.init (Array.length progs) (fun i -> (i, Cold_boot Progs.Rules))
  in
  { rules; progs; items; qemu_host; depots; layer_ms = List.rev !ms }

(* Set up at least [setup_min_reps] times and until [setup_min_s] have
   passed (at most [setup_max_reps]): a cheap set-up repeats more, so
   its median is as steady as an expensive one's. setup_s (calibrated,
   see Calib) and the set-up layer figures are medians; the last
   set-up is the one measured. *)
let repeated_setup f ~layer_ms =
  let t0 = Util.now_ns () in
  let rec go rep acc =
    let elapsed = float_of_int (Util.now_ns () - t0) /. 1e9 in
    if rep >= setup_max_reps || (rep >= setup_min_reps && elapsed >= setup_min_s)
    then acc
    else go (rep + 1) (Calib.calibrated (fun () -> f rep) :: acc)
  in
  let runs = go 0 [] in
  let layer_median name =
    Util.median (List.filter_map (fun (s, _) -> List.assoc_opt name (layer_ms s)) runs)
  in
  (fst (List.hd runs), Util.median (List.map snd runs), layer_median)

(* ---------- steady, cold: rounds of boot-to-halt runs ---------- *)

type sample = {
  item : int * boot;
  ns : float;
      (** boot to halt: machine creation, image load, (depot), run; wall
          ns, or calibrated ns once a [trace 0] run has scaled it *)
  win : int;  (** its calibration window ([trace 0]), see Calib *)
  guest : int;
  host : int;
}

(* [failed] counts requests that did not deliver the reference output
   (mismatched, or for [fleet] not served); [mismatched] those that
   delivered a wrong one, which fail the command. *)
type tally = {
  guard : (string, int array) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
}

let key setup (i, b) = setup.progs.(i).Progs.name ^ "/" ^ boot_name b

(* The warm boot: the depot's embedded ruleset replaces learning. *)
let warm_machine ?scope ?spans dir (p : Progs.program) =
  let span l f = match spans with Some t -> Spans.span t l f | None -> f () in
  let d = span Spans.Depot_load (fun () -> Depot.load dir) in
  let rs =
    match Repro_rules.Serialize.load (Depot.rules d) with
    | Ok rs -> rs
    | Error e -> Util.fail "%s: the depot's ruleset does not load: %s" p.Progs.name e
  in
  let sys = D.System.create ?scope ~ruleset:rs Progs.rules_mode in
  Repro_kernel.Kernel.load p.Progs.image (D.System.load_image sys);
  ignore (span Spans.Depot_install (fun () -> D.System.depot_install sys d));
  sys

let machine setup ?scope ?spans (i, b) =
  let p = setup.progs.(i) in
  match b with
  | Warm_boot -> warm_machine ?scope ?spans setup.depots.(i) p
  | Cold_boot e -> Progs.machine ?scope setup.rules e p

(* Book a finished run: reference check, then either the determinism
   guard (untraced) or the traced/untraced identity check. *)
let book setup tally ~traced item sys res ns =
  let p = setup.progs.(fst item) in
  tally.attempted <- tally.attempted + 1;
  if not (Progs.matches p sys res) then begin
    tally.failed <- tally.failed + 1;
    tally.mismatched <- tally.mismatched + 1;
    Printf.eprintf "bench: %s differs from the reference\n%!" (key setup item)
  end;
  let st = D.System.stats sys in
  (if traced then
     match Hashtbl.find_opt tally.guard (key setup item) with
     | Some a when a = Stats.to_array st -> ()
     | _ ->
       Util.fail "%s: the traced engine loop's Stats differ from System.run's"
         (key setup item)
   else Progs.guard tally.guard (key setup item) st);
  { item; ns = float_of_int ns; win = 0; guest = st.Stats.guest_insns; host = st.Stats.host_insns }

let untraced ?meter setup tally item =
  let t0 = Util.now_ns () in
  let sys = machine setup item in
  let res = D.System.run sys in
  let ns = Util.now_ns () - t0 in
  let s = book setup tally ~traced:false item sys res ns in
  match meter with Some m -> { s with win = Calib.tick m ns } | None -> s

(* The modelled figures of one traced run, read before its machine is
   dropped: summable counts by metric name, and the coverage source. *)
type figures = { counts : (string * int) list; cov : Cov.source }

let sync_insns = "sync_insns"

let figures sys scope =
  let st = D.System.stats sys in
  let installed, pending = D.System.depot_coverage sys in
  {
    counts =
      List.map (fun p -> (phase_metric p, Scope.phase_count scope p)) Phase.all
      @ [
          ("stats.tb_translations", st.Stats.tb_translations);
          ("stats.chained_jumps", st.Stats.chained_jumps);
          ("stats.engine_returns", st.Stats.engine_returns);
          ("stats.tlb_misses", st.Stats.tlb_misses);
          (sync_insns, Stats.tag_count st Repro_x86.Insn.Tag_sync);
          ("depot.installed", installed);
          ("depot.pending", pending);
        ];
    cov = Cov.of_stats st;
  }

let traced setup tally spans item =
  let scope = Scope.create () in
  let t0 = Util.now_ns () in
  let sys = machine setup ~scope ~spans item in
  let res =
    match snd item with
    | Warm_boot -> Spans.run_system spans sys
    | Cold_boot e -> Spans.run spans sys e
  in
  let ns = Util.now_ns () - t0 in
  (book setup tally ~traced:true item sys res ns, figures sys scope)

(* Whole rounds, each a fresh seed-drawn order of the round's items,
   until [seconds] have passed (at least one round). A round is never
   cut short, so every run measures whole copies of the same set. *)
let rounds setup ~seed ~salt ~seconds run =
  let t0 = Util.now_ns () in
  let rec go r acc =
    if r > 0 && float_of_int (Util.now_ns () - t0) /. 1e9 >= seconds then
      List.rev acc
    else
      let order = Util.shuffle ~seed ~salt:(salt + r) setup.items in
      go (r + 1) (Array.to_list (Array.map run order) :: acc)
  in
  go 0 []

let sum = Util.sum
let boots b l = List.filter (fun s -> snd s.item = b) l
let is_rules s = snd s.item = Cold_boot Progs.Rules

let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* ns of real time per retired guest insn, per round *)
let ns_per_guest round =
  fsum (fun s -> s.ns) round /. float_of_int (sum (fun s -> s.guest) round)

let round_e2e setup workload rounds =
  let all = List.concat rounds in
  let secs = fsum (fun s -> s.ns) all /. 1e9 in
  let first = List.hd rounds in
  let rules = List.filter is_rules first in
  let rules_host = sum (fun s -> s.host) rules in
  let qemu_host =
    match workload with
    | Cold -> sum (fun s -> s.host) (boots (Cold_boot Progs.Qemu) first)
    | _ -> sum (fun s -> setup.qemu_host.(fst s.item)) rules
  in
  let latencies = List.map (fun s -> s.ns /. 1e6) all in
  [
    ("guest_mips", float_of_int (sum (fun s -> s.guest) all) /. secs /. 1e6);
    ("host_per_guest", Util.ratio rules_host (sum (fun s -> s.guest) rules));
    ("speedup_vs_qemu", Util.ratio qemu_host rules_host);
    ("requests_per_s", float_of_int (List.length all) /. secs);
    ("req_ms_p50", Util.quantile 0.5 latencies);
    ("req_ms_p90", Util.quantile 0.9 latencies);
  ]

(* The modelled per-layer figures of one traced round (every round is
   identical, by the guards): the cold rules runs' counts, phases and
   sync per guest insn, and the warm runs' depot counts. *)
let modelled_layers round =
  let rules = List.filter (fun (s, _) -> is_rules s) round in
  let warm = List.filter (fun (s, _) -> snd s.item = Warm_boot) round in
  let guest = sum (fun (s, _) -> s.guest) rules in
  let total runs name = sum (fun (_, f) -> List.assoc name f.counts) runs in
  let names = List.map fst (snd (List.hd round)).counts in
  List.map
    (fun name ->
      if String.starts_with ~prefix:"phase." name then (name, Util.ratio (total rules name) guest)
      else if name = sync_insns then ("stats.sync_per_guest", Util.ratio (total rules name) guest)
      else if String.starts_with ~prefix:"depot." name then (name, float_of_int (total warm name))
      else (name, float_of_int (total rules name)))
    names
  @ [
      ( "coverage.rule_frac",
        Cov.coverage (Cov.make (Cov.merge (List.map (fun (_, f) -> f.cov) rules))) );
    ]

let fingerprint_values values =
  String.concat "\n" (List.map (fun (n, v) -> Printf.sprintf "%s %.17g" n v) values)

let gc_layers (w : Gcwatch.watch) ~guest ~wall_ns =
  let t = w.Gcwatch.t in
  if t.Gcwatch.lost_events > 0 then
    Printf.eprintf "bench: %d runtime events lost; gc.pause_ms undercounts\n%!"
      t.Gcwatch.lost_events;
  [
    ("gc.minor_words_per_guest_insn", t.Gcwatch.minor_words /. float_of_int guest);
    ("gc.major_collections", float_of_int t.Gcwatch.major_collections /. (float_of_int guest /. 1e6));
    ("gc.pause_ms", Util.ms_of_ns t.Gcwatch.pause_ns /. (wall_ns /. 1e9));
  ]

let span_layers spans ~rounds ~host =
  let per_round l = Util.ms_of_ns (Spans.ns spans l) /. float_of_int rounds in
  let calls l = float_of_int (Spans.calls spans l) /. float_of_int rounds in
  let offers = Spans.calls spans Spans.Region in
  let translate_calls = Spans.calls spans Spans.Translate in
  [
    ("translate.calls", calls Spans.Translate);
    ("translate.ms", per_round Spans.Translate);
    ( "translate.us_per_call",
      if translate_calls = 0 then 0.
      else float_of_int (Spans.ns spans Spans.Translate) /. 1e3 /. float_of_int translate_calls );
    ("tcg.calls", calls Spans.Tcg);
    ("tcg.ms", per_round Spans.Tcg);
    ("region.offers", calls Spans.Region);
    ("region.formed", float_of_int spans.Spans.regions_formed /. float_of_int rounds);
    ("region.yield", Util.ratio spans.Spans.regions_formed offers);
    ("region.ms", per_round Spans.Region);
    ("link.calls", calls Spans.Link);
    ("link.ms", per_round Spans.Link);
    ("enter.calls", calls Spans.Enter);
    ("enter.ms", per_round Spans.Enter);
    ("verify.calls", calls Spans.Verify);
    ("verify.ms", per_round Spans.Verify);
    ("engine.self_ms", per_round Spans.Engine);
    ( "engine.ns_per_host_insn",
      float_of_int (Spans.ns spans Spans.Engine) /. float_of_int (rounds * host) );
    ("depot.load_ms", per_round Spans.Depot_load);
    ("depot.install_ms", per_round Spans.Depot_install);
  ]

type run = {
  workload : workload;
  wname : string;
  seed : int;
  seconds : float;
  trace : bool;
  state_dir : string;
  run_dir : string;
}

let measure_rounds r =
  let setup, setup_s, layer_median =
    repeated_setup
      (fun rep -> setup r.workload ~run_dir:r.run_dir ~rep)
      ~layer_ms:(fun s -> s.layer_ms)
  in
  let tally = { guard = Hashtbl.create 64; attempted = 0; failed = 0; mismatched = 0 } in
  let untraced_run ?gc ?meter () =
    let run item =
      match gc with
      | Some w -> Gcwatch.around w (fun () -> untraced ?meter setup tally item)
      | None -> untraced ?meter setup tally item
    in
    rounds setup ~seed:r.seed ~salt:0 ~seconds:(if r.trace then r.seconds /. 2. else r.seconds) run
  in
  let seedless = Printf.sprintf "%s-%s" r.wname in
  if not r.trace then begin
    let meter = Calib.meter () in
    let raw_rs = untraced_run ~meter () in
    let scale = Calib.finish meter in
    let rs = List.map (List.map (fun s -> { s with ns = s.ns *. scale s.win })) raw_rs in
    let e2e = round_e2e setup r.workload rs in
    let raw = round_e2e setup r.workload raw_rs in
    let probes, probe_ms = Calib.summary meter in
    Printf.printf "calib %d probes, median %.4g ms; uncalibrated guest_mips %.6g req_ms_p50 %.6g\n"
      probes probe_ms (List.assoc "guest_mips" raw) (List.assoc "req_ms_p50" raw);
    (* the seed only reorders programs, so the modelled figures must
       match every other seed's *)
    Progs.fingerprint ~state_dir:r.state_dir ~name:(seedless "e2e")
      (fingerprint_values (List.filter (fun (n, _) -> n = "host_per_guest" || n = "speedup_vs_qemu") e2e));
    ( e2e @ [ ("setup_s", setup_s); ("peak_rss_mb", Util.peak_rss_mb ()) ],
      tally )
  end
  else begin
    let w = Gcwatch.create () in
    let plain = untraced_run ~gc:w () in
    let plain_samples = List.concat plain in
    let gc =
      gc_layers w
        ~guest:(sum (fun s -> s.guest) plain_samples)
        ~wall_ns:(fsum (fun s -> s.ns) plain_samples)
    in
    let spans = Spans.create () in
    let traced_rounds =
      rounds setup ~seed:r.seed ~salt:1_000_000 ~seconds:(r.seconds /. 2.)
        (traced setup tally spans)
    in
    let n = List.length traced_rounds in
    let modelled = modelled_layers (List.hd traced_rounds) in
    Progs.fingerprint ~state_dir:r.state_dir ~name:(seedless "layers")
      (fingerprint_values modelled);
    let traced_samples = List.map (List.map fst) traced_rounds in
    let host = sum (fun s -> s.host) (List.hd traced_samples) in
    let overhead =
      Util.median (List.map ns_per_guest traced_samples)
      /. Util.median (List.map ns_per_guest plain)
      -. 1.
    in
    let setup_layers =
      List.map (fun n -> (n, layer_median n))
        [ "learn.ms"; "image.ms"; "reference.ms"; "depot.capture_ms"; "depot.save_ms" ]
    in
    (* the real-time gain of a warm boot over a cold rules boot *)
    let boot_ns b = fsum (fun s -> s.ns) (boots b plain_samples) in
    let depot =
      if r.workload <> Cold then []
      else
        [
          ( "depot.bytes",
            float_of_int
              (Array.fold_left
                 (fun acc dir -> acc + String.length (Depot.to_string (Depot.load dir)))
                 0 setup.depots) );
          ("depot.boot_speedup", boot_ns (Cold_boot Progs.Rules) /. boot_ns Warm_boot);
        ]
    in
    ( setup_layers @ span_layers spans ~rounds:n ~host @ modelled @ depot @ gc
      @ [ ("trace.overhead_frac", overhead) ],
      tally )
  end

(* ---------- fleet ---------- *)

(* the drills of a traced fleet run's untraced half *)
let plain_drills = 8

let measure_fleet r ~domains =
  let setup, setup_s, layer_median =
    repeated_setup
      (fun _ -> Fleetload.setup ())
      ~layer_ms:(fun s -> s.Fleetload.layer_ms)
  in
  let attempted ds = sum (fun d -> d.Fleetload.offered) ds in
  let failed ds = sum (fun d -> d.Fleetload.offered - d.Fleetload.served_ok) ds in
  (* a served request was verified against the reference by its
     supervisor, and a wrong final_verify aborts: unavailability under
     chaos is a failure, never a mismatch *)
  let tally ds =
    { guard = Hashtbl.create 1; attempted = attempted ds; failed = failed ds; mismatched = 0 }
  in
  let epochs ds = List.concat_map (fun d -> d.Fleetload.epochs) ds in
  let modelled ds =
    let c = Fleetload.one_cycle ds in
    let guest = sum (fun d -> d.Fleetload.guest) c in
    (c, guest, sum (fun d -> d.Fleetload.host) c)
  in
  let run_drills ?gc ?meter ~min_cycle seconds =
    if min_cycle then
      Fleetload.drills setup ~seed:r.seed ~domains ~seconds ?gc ?meter ~state_dir:r.state_dir ()
    else
      (* the untraced half of a traced run needs timing, not the whole
         plan cycle: the first [plain_drills] plans *)
      List.init plain_drills (Fleetload.drill setup ~seed:r.seed ~domains ?gc)
  in
  if not r.trace then begin
    let meter = Calib.meter () in
    let ds = run_drills ~meter ~min_cycle:true r.seconds in
    let scale = Calib.finish meter in
    let _, guest, host = modelled ds in
    let hpg = Util.ratio host guest in
    (* calibrated epoch walls and latencies, see Calib *)
    let ep =
      List.concat_map
        (fun d ->
          let k = scale d.Fleetload.win in
          List.map (fun (ns, g) -> (float_of_int ns *. k, g)) d.Fleetload.epochs)
        ds
    in
    let lat =
      List.concat_map
        (fun d -> List.map (( *. ) (scale d.Fleetload.win)) d.Fleetload.latencies_ms)
        ds
    in
    let epoch_s = List.fold_left (fun acc (ns, _) -> acc +. ns) 0. ep /. 1e9 in
    ( [
        ("guest_mips", float_of_int (sum snd ep) /. epoch_s /. 1e6);
        ("host_per_guest", hpg);
        ("speedup_vs_qemu", setup.Fleetload.qemu_host_per_guest /. hpg);
        ("requests_per_s", float_of_int (Fleetload.machines * List.length ep) /. epoch_s);
        ("req_ms_p50", Util.quantile 0.5 lat);
        ("req_ms_p90", Util.quantile 0.9 lat);
        ("setup_s", setup_s);
        ("peak_rss_mb", Util.peak_rss_mb ());
      ],
      tally ds )
  end
  else begin
    let w = Gcwatch.create () in
    let plain = run_drills ~gc:w ~min_cycle:false (r.seconds /. 2.) in
    let gc =
      gc_layers w
        ~guest:(sum (fun d -> d.Fleetload.guest) plain)
        ~wall_ns:(float_of_int (sum (fun d -> d.Fleetload.serve_ns) plain))
    in
    let ds = run_drills ~min_cycle:true (r.seconds /. 2.) in
    let c, guest, _ = modelled ds in
    let per_drill f = float_of_int (sum f c) /. float_of_int (List.length c) in
    let ns_per_guest ds =
      float_of_int (sum (fun d -> d.Fleetload.serve_ns) ds)
      /. float_of_int (sum (fun d -> d.Fleetload.guest) ds)
    in
    let capture_ms, restore_ms, bytes =
      Fleetload.snapshot_costs setup.Fleetload.base ~reps:9
    in
    let phases =
      List.map
        (fun p ->
          ( phase_metric p,
            Util.ratio (sum (fun d -> d.Fleetload.phases.(Phase.index p)) c) guest ))
        Phase.all
    in
    let modelled_values =
      phases
      @ [
          ("fleet.restarts", per_drill (fun d -> d.Fleetload.restarts));
          ( "fleet.checkpoints_per_request",
            Util.ratio (sum (fun d -> d.Fleetload.checkpoints) c) (attempted c) );
          ("fleet.timed_out", per_drill (fun d -> d.Fleetload.timed_out));
          ("fleet.shed", per_drill (fun d -> d.Fleetload.shed));
          ("fleet.breaker_trips", per_drill (fun d -> d.Fleetload.breaker_trips));
        ]
    in
    ( [ ("image.ms", layer_median "image.ms"); ("reference.ms", layer_median "reference.ms") ]
      @ modelled_values
      @ [
          ("snapshot.capture_ms", capture_ms);
          ("snapshot.restore_ms", restore_ms);
          ("snapshot.bytes", float_of_int bytes);
          ("fleet.epoch_ms", Util.median (List.map (fun (ns, _) -> Util.ms_of_ns ns) (epochs ds)));
          ("fleet.domains", float_of_int domains);
          ( "trace.overhead_frac",
            (ns_per_guest (List.filteri (fun i _ -> i < plain_drills) ds) /. ns_per_guest plain)
            -. 1. );
        ]
      @ gc,
      tally (plain @ ds) )
  end

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let state_dir = ref ".bench_state" and run_dir = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME steady|cold|fleet");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N processors available (recorded)");
      ("--state-dir", Arg.Set_string state_dir, "DIR fingerprints kept across runs");
      ("--run-dir", Arg.Set_string run_dir, "DIR this run's scratch files (default STATE-DIR/run-PID)");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      Arg.usage spec usage;
      exit 2
  in
  let run_dir =
    if !run_dir <> "" then !run_dir
    else Filename.concat !state_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  let r =
    {
      workload = wl;
      wname = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      state_dir = !state_dir;
      run_dir;
    }
  in
  (* One domain for every workload, fleet included: Parfleet's barrier,
     replay and breaker sweep run the same code at any domain count, and
     a second domain on a shared host's second vCPU doubles the noise
     (and makes peak RSS swing with the two heaps' timing). *)
  let domains = 1 in
  Printf.printf
    "env {\"workload\": \"%s\", \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"recommended_domains\": %d, \"domains\": %d, \"ocaml\": \"%s\"}\n%!"
    !workload !seed !trace !nproc (Domain.recommended_domain_count ()) domains
    Sys.ocaml_version;
  match
    Progs.mkdir_p run_dir;
    if wl = Fleet then measure_fleet r ~domains else measure_rounds r
  with
  | values, tally ->
    emit
      ~catalogue:(if r.trace then per_layer else end_to_end)
      ~values ~correct:(tally.mismatched = 0) ~attempted:tally.attempted
      ~failed:tally.failed;
    exit (if tally.mismatched = 0 then 0 else 1)
  | exception Util.Invariant msg ->
    Printf.eprintf "bench: %s\n%!" msg;
    exit 3
