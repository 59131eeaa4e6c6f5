module T = Repro_tcg
module D = Repro_dbt
module O = Repro_observe
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Exec = Repro_x86.Exec
module Snapshot = Repro_snapshot.Snapshot
module Cpu = Repro_arm.Cpu

(* Observability-layer tests: the JSON writers, the event ring, the
   coordination ledger (unit-level and against whole-system ablation
   measurements), and the two invariants the layer promises — tracing
   changes nothing, and snapshots neither carry nor disturb it. *)

(* ---- Jsonx ---------------------------------------------------------- *)

let test_jsonx () =
  Alcotest.(check string) "escaping" "\"a\\\"b\\\\c\\n\\u0007\""
    (O.Jsonx.str "a\"b\\c\n\007");
  (* every control character below 0x20 must be escaped — bare control
     bytes make the output invalid JSON *)
  for c = 0 to 0x1F do
    let rendered = O.Jsonx.str (String.make 1 (Char.chr c)) in
    String.iter
      (fun ch ->
        if Char.code ch < 0x20 then
          Alcotest.failf "control char %#x leaked into %S" c rendered)
      rendered
  done;
  Alcotest.(check string) "NUL" "\"\\u0000\"" (O.Jsonx.str "\000");
  Alcotest.(check string) "short and \\u escapes"
    "\"\\u0008\\t\\n\\u000b\\u000c\\r\"" (O.Jsonx.str "\b\t\n\011\012\r");
  (* non-ASCII bytes pass through untouched (the writer is
     byte-transparent above 0x1F; UTF-8 stays UTF-8, and raw bytes
     still round-trip through the parser) *)
  Alcotest.(check string) "UTF-8 passes through" "\"caf\xc3\xa9\""
    (O.Jsonx.str "caf\xc3\xa9");
  Alcotest.(check string) "raw high bytes pass through" "\"\xff\x80\""
    (O.Jsonx.str "\xff\x80");
  Alcotest.(check string) "DEL passes through" "\"\x7f\"" (O.Jsonx.str "\x7f");
  Alcotest.(check string) "int" "-42" (O.Jsonx.int (-42));
  Alcotest.(check string) "bool" "true" (O.Jsonx.bool true);
  Alcotest.(check string) "integral float" "3" (O.Jsonx.float 3.0);
  Alcotest.(check string) "nan is null" "null" (O.Jsonx.float Float.nan);
  Alcotest.(check string) "inf is null" "null" (O.Jsonx.float Float.infinity);
  Alcotest.(check string) "obj"
    "{\"a\":1,\"b\":[true,\"x\"]}"
    (O.Jsonx.obj
       [ ("a", O.Jsonx.int 1); ("b", O.Jsonx.arr [ O.Jsonx.bool true; O.Jsonx.str "x" ]) ])

(* ---- the event ring ------------------------------------------------- *)

let test_ring_overflow () =
  let tr = O.Trace.create ~capacity:8 () in
  Alcotest.(check int) "empty" 0 (O.Trace.length tr);
  for i = 1 to 20 do
    O.Trace.emit tr ~a:i O.Trace.Exec "e"
  done;
  Alcotest.(check int) "total counts every emit" 20 (O.Trace.total tr);
  Alcotest.(check int) "length capped at capacity" 8 (O.Trace.length tr);
  Alcotest.(check int) "dropped = total - length" 12 (O.Trace.dropped tr);
  (* the ring keeps the newest events, iterated oldest-first *)
  let kept = List.map (fun e -> e.O.Trace.a) (O.Trace.events tr) in
  Alcotest.(check (list int)) "oldest-first, newest kept"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ] kept;
  O.Trace.clear tr;
  Alcotest.(check int) "clear empties" 0 (O.Trace.length tr);
  Alcotest.(check int) "clear resets total" 0 (O.Trace.total tr)

let test_ring_clock () =
  let tr = O.Trace.create () in
  let now = ref 0 in
  O.Trace.set_clock tr (fun () -> !now);
  O.Trace.emit tr O.Trace.Sync "a";
  now := 99;
  O.Trace.emit tr O.Trace.Sync "b";
  match O.Trace.events tr with
  | [ a; b ] ->
    Alcotest.(check int) "first timestamp" 0 a.O.Trace.at;
    Alcotest.(check int) "second timestamp" 99 b.O.Trace.at
  | _ -> Alcotest.fail "expected 2 events"

let with_temp_file f =
  let path = Filename.temp_file "repro_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_trace_writers () =
  let tr = O.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    O.Trace.emit tr ~a:i O.Trace.Irq "tick"
  done;
  with_temp_file (fun path ->
      let oc = open_out path in
      O.Trace.write_jsonl oc tr;
      close_out oc;
      let lines = String.split_on_char '\n' (String.trim (read_file path)) in
      Alcotest.(check int) "4 events + meta trailer" 5 (List.length lines);
      let trailer = List.nth lines 4 in
      Alcotest.(check bool) "trailer records drops" true
        (trailer = "{\"meta\":\"trace\",\"total\":6,\"dropped\":2}"));
  with_temp_file (fun path ->
      let oc = open_out path in
      O.Trace.write_chrome oc tr;
      close_out oc;
      let s = read_file path in
      Alcotest.(check bool) "chrome: traceEvents array" true
        (String.length s > 2 && String.sub s 0 16 = "{\"traceEvents\":[");
      (* every category gets a named track *)
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "chrome: thread metadata" true
        (contains "thread_name" s);
      Alcotest.(check bool) "chrome: drop count in otherData" true
        (contains "\"dropped\":2" s))

(* ---- ledger unit level ---------------------------------------------- *)

let test_ledger_units () =
  let l = O.Ledger.create () in
  let p = O.Ledger.zero_prov () in
  O.Ledger.prov_add p O.Ledger.Elim_mem ~ops:2 ~insns:7;
  O.Ledger.prov_add p O.Ledger.Reduction ~ops:0 ~insns:5;
  O.Ledger.record_static l p;
  O.Ledger.record_exec l p;
  O.Ledger.record_exec l p;
  O.Ledger.record_exec l (O.Ledger.zero_prov ());  (* ignored: all-zero *)
  O.Ledger.record_exec l [||];                     (* ignored: no provenance *)
  Alcotest.(check int) "static ops" 2 (O.Ledger.static_ops l O.Ledger.Elim_mem);
  Alcotest.(check int) "static insns" 5 (O.Ledger.static_insns l O.Ledger.Reduction);
  Alcotest.(check int) "dyn ops x2" 4 (O.Ledger.dyn_ops l O.Ledger.Elim_mem);
  Alcotest.(check int) "dyn insns x2" 14 (O.Ledger.dyn_insns l O.Ledger.Elim_mem);
  let json = O.Ledger.to_json l in
  Alcotest.(check bool) "to_json is an object" true
    (String.length json > 2 && json.[0] = '{');
  (* re-emission delta: replace the TB's contribution without bumping
     the translation count *)
  let p' = O.Ledger.zero_prov () in
  O.Ledger.prov_add p' O.Ledger.Elim_mem ~ops:3 ~insns:9;
  O.Ledger.record_static_delta l (O.Ledger.prov_diff ~old_:p p');
  Alcotest.(check int) "delta replaced ops" 3 (O.Ledger.static_ops l O.Ledger.Elim_mem);
  Alcotest.(check int) "delta replaced insns" 9
    (O.Ledger.static_insns l O.Ledger.Elim_mem);
  Alcotest.(check int) "delta retired the old pass entry" 0
    (O.Ledger.static_insns l O.Ledger.Reduction);
  (* dynamic-only entries, negative = cost *)
  O.Ledger.add_dynamic l O.Ledger.Reduction ~ops:0 ~insns:(-6);
  Alcotest.(check int) "negative dynamic entry" (10 - 6)
    (O.Ledger.dyn_insns l O.Ledger.Reduction);
  O.Ledger.reset l;
  Alcotest.(check int) "reset" 0 (O.Ledger.total_static_ops l)

(* ---- whole-system runs ---------------------------------------------- *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) () =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let run_image ?trace ?ledger image mode =
  let sys = D.System.create ?trace ?ledger mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  (match res.T.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Deadline -> Alcotest.fail "run hit its instruction limit"
  | `Livelock pc -> Alcotest.failf "livelock at %#x" pc);
  sys

let fingerprint sys =
  let rt = sys.D.System.rt in
  ( Cpu.save_words rt.T.Runtime.cpu,
    Digest.to_hex (Digest.string (Repro_common.Ram.to_string rt.T.Runtime.ctx.Exec.ram)),
    Stats.to_array (D.System.stats sys),
    D.System.uart_output sys )

let check_fingerprint msg (ra, ma, sa, ua) (rb, mb, sb, ub) =
  Alcotest.(check (array int)) (msg ^ ": cpu words") ra rb;
  Alcotest.(check string) (msg ^ ": ram digest") ma mb;
  Alcotest.(check (array int)) (msg ^ ": stats") sa sb;
  Alcotest.(check string) (msg ^ ": uart") ua ub

(* The load-bearing invariant: attaching the trace and the ledger is
   purely observational — every counter, every byte of guest state and
   the UART transcript are bit-identical to an uninstrumented run. *)
let test_tracing_off_bit_identity () =
  let image = kernel_image () in
  let plain = run_image image (D.System.Rules D.Opt.full) in
  let trace = O.Trace.create () in
  let ledger = O.Ledger.create () in
  let traced = run_image ~trace ~ledger image (D.System.Rules D.Opt.full) in
  check_fingerprint "instrumented vs plain" (fingerprint plain) (fingerprint traced);
  (* and the instrumentation did observe the run *)
  Alcotest.(check bool) "events captured" true (O.Trace.total trace > 1000);
  Alcotest.(check bool) "dynamic savings attributed" true
    (O.Ledger.total_dyn_insns ledger > 0);
  Alcotest.(check bool) "timestamps are guest insns" true
    (List.for_all
       (fun e -> e.O.Trace.at <= (D.System.stats traced).Stats.guest_insns)
       (O.Trace.events trace))

(* Trace events cover the taxonomy on a workload with IRQs + MMU. *)
let test_trace_taxonomy () =
  let image = kernel_image ~timer:2_000 () in
  let trace = O.Trace.create () in
  let _sys = run_image ~trace image (D.System.Rules D.Opt.full) in
  let seen = Hashtbl.create 16 in
  O.Trace.iter trace (fun e ->
      Hashtbl.replace seen (e.O.Trace.cat, e.O.Trace.name) ());
  let expect cat name =
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s emitted" (O.Trace.category_name cat) name)
      true
      (Hashtbl.mem seen (cat, name))
  in
  expect O.Trace.Exec "translate";
  expect O.Trace.Exec "halt";
  expect O.Trace.Chain "link";
  expect O.Trace.Chain "jump";
  expect O.Trace.Irq "timer_raise";
  expect O.Trace.Irq "deliver";
  expect O.Trace.Sync "lazy_parse";
  expect O.Trace.Tlb "miss"

(* ---- ledger vs measured ablations ----------------------------------- *)

(* Toggle each op-removing pass off individually and compare the
   whole-system sync_ops increase against what the ledger attributed
   to that pass under [full]. Pass interactions make exact equality
   impossible, so the check is same-sign agreement within a per-pass
   factor: III-C.2's sites are mostly independent (factor 2), while
   III-C.3 attributes every elided entry save even though block
   chaining recoups most of them when the pass is off — the
   whole-system delta only shows the unchained residue, so its
   tolerance is an order of magnitude. Tight enough to catch broken
   attribution (wrong pass, wrong sign, double counting), loose
   enough to survive the interactions. *)
let test_ledger_vs_ablation () =
  let image = kernel_image () in
  let ledger = O.Ledger.create () in
  let full = run_image ~ledger image (D.System.Rules D.Opt.full) in
  let full_sync = (D.System.stats full).Stats.sync_ops in
  List.iter
    (fun (name, pass, factor, opt) ->
      let abl = run_image image (D.System.Rules opt) in
      let measured = (D.System.stats abl).Stats.sync_ops - full_sync in
      let attributed = O.Ledger.dyn_ops ledger pass in
      Alcotest.(check bool) (name ^ ": pass removes sync ops") true (measured > 0);
      Alcotest.(check bool) (name ^ ": ledger attributed some") true (attributed > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: attribution within %dx (measured %d, attributed %d)"
           name factor measured attributed)
        true
        (attributed <= factor * measured && measured <= factor * attributed))
    [
      ("III-C.2", O.Ledger.Elim_mem, 2, { D.Opt.full with D.Opt.elim_mem = false });
      ("III-C.3", O.Ledger.Inter_tb, 12, { D.Opt.full with D.Opt.inter_tb = false });
    ];
  (* guest-visible output must be identical across every ablation
     (retired-instruction totals may differ slightly: interrupt
     delivery lands on different TB boundaries per configuration) *)
  let abl = run_image image (D.System.Rules D.Opt.base) in
  Alcotest.(check string) "same guest output at base level"
    (D.System.uart_output full) (D.System.uart_output abl)

(* III-B removes sync-tagged host instructions (packed save vs QEMU's
   one-to-many parse), not whole ops: its attribution is checked
   against the Tag_sync instruction delta instead. *)
let test_ledger_reduction_insns () =
  let image = kernel_image () in
  let ledger = O.Ledger.create () in
  let full = run_image ~ledger image (D.System.Rules D.Opt.full) in
  let abl =
    run_image image (D.System.Rules { D.Opt.full with D.Opt.reduction = false })
  in
  let tag_sync s = Stats.tag_count s Repro_x86.Insn.Tag_sync in
  let measured =
    tag_sync (D.System.stats abl) - tag_sync (D.System.stats full)
  in
  let attributed = O.Ledger.dyn_insns ledger O.Ledger.Reduction in
  Alcotest.(check bool) "reduction saves sync insns" true (measured > 0);
  Alcotest.(check bool)
    (Printf.sprintf "attribution within 2x (measured %d, attributed %d)"
       measured attributed)
    true
    (attributed > 0 && attributed <= 2 * measured && measured <= 2 * attributed)

(* ---- snapshots ------------------------------------------------------ *)

(* Save/restore round-trip with instrumentation attached: guest state
   and counters stay bit-identical, and the trace/ledger are NOT part
   of the snapshot — the thawed machine keeps accumulating into its
   own (fresh) instances, documenting the exclusion. *)
let test_roundtrip_with_tracing () =
  let image = kernel_image () in
  let full = run_image image (D.System.Rules D.Opt.full) in
  let trace1 = O.Trace.create () in
  let ledger1 = O.Ledger.create () in
  let part = D.System.create ~trace:trace1 ~ledger:ledger1 (D.System.Rules D.Opt.full) in
  K.load image (fun base words -> D.System.load_image part base words);
  (match (D.System.run ~max_guest_insns:15_000 ~checkpoint_every:4_000 part).T.Engine.reason with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "interrupted run should hit its budget");
  let frozen = Snapshot.to_string (D.System.snapshot part) in
  let snap = Snapshot.of_string frozen in
  let trace2 = O.Trace.create () in
  let ledger2 = O.Ledger.create () in
  let thawed =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib snap)
      ~trace:trace2 ~ledger:ledger2
      (D.System.snapshot_mode snap)
  in
  D.System.restore thawed snap;
  (* the cache rebuild runs with the ledger detached: restoring must
     not re-count statics the interrupted machine already recorded *)
  Alcotest.(check int) "rebuild recorded no statics (ledger detached)" 0
    (O.Ledger.total_static_ops ledger2 + O.Ledger.total_static_insns ledger2);
  let events_at_restore = O.Trace.total trace2 in
  (match (D.System.run ~max_guest_insns:1_985_000 thawed).T.Engine.reason with
  | `Halted _ -> ()
  | _ -> Alcotest.fail "restored run did not halt");
  check_fingerprint "traced round-trip" (fingerprint full) (fingerprint thawed);
  (* the snapshot carried no trace: the interrupted machine's ring kept
     its events, and the thawed ring only holds what the thawed machine
     itself emitted (the restore marker plus its own run) *)
  Alcotest.(check bool) "interrupted ring kept its events" true
    (O.Trace.total trace1 > 0);
  Alcotest.(check bool) "thawed ring accumulated its own events" true
    (events_at_restore >= 1 && O.Trace.total trace2 > events_at_restore)

let suite =
  [
    ( "observe",
      [
        Alcotest.test_case "jsonx writers" `Quick test_jsonx;
        Alcotest.test_case "ring overflow + drop accounting" `Quick
          test_ring_overflow;
        Alcotest.test_case "settable clock" `Quick test_ring_clock;
        Alcotest.test_case "jsonl + chrome export" `Quick test_trace_writers;
        Alcotest.test_case "ledger unit ops" `Quick test_ledger_units;
        Alcotest.test_case "tracing is bit-identical to off" `Quick
          test_tracing_off_bit_identity;
        Alcotest.test_case "event taxonomy covered" `Quick test_trace_taxonomy;
        Alcotest.test_case "ledger vs measured ablations (ops)" `Quick
          test_ledger_vs_ablation;
        Alcotest.test_case "ledger vs measured ablation (III-B insns)" `Quick
          test_ledger_reduction_insns;
        Alcotest.test_case "save/restore with tracing attached" `Quick
          test_roundtrip_with_tracing;
      ] );
  ]
