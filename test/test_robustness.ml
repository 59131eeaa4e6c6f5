open Repro_arm
module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Fi = Repro_faultinject.Faultinject
module Stats = Repro_x86.Stats

(* Robustness tests: differential fuzzing through the exception paths
   (bus faults, undefined instructions, svc), fault-injection
   absorption, and the shadow-verification / quarantine machinery. *)

(* ---- a flat bare-metal harness -------------------------------------

   Vector table at 0 with absorbing handlers (undef/svc return past
   the instruction, data aborts skip the faulting access), then a
   random body with r6 anchored at a scratch RAM window and r9 at an
   unmapped physical window. The epilogue folds r1-r12 (and optionally
   NZCV) plus a rolling hash of the scratch window into r0 and writes
   it to the system controller: the exit code is a checksum of all
   guest-visible state, so a single halt-code comparison covers
   registers, flags and the memory effect. *)

let scratch_base = 0x0001_0000
let fault_window = 0xF100_0000

let flat_image ?(flags_checksum = true) body =
  let a = Asm.create ~origin:0 () in
  Asm.branch_to a "start" (* 0x00 reset *);
  Asm.branch_to a "undef_h" (* 0x04 undefined instruction *);
  Asm.branch_to a "svc_h" (* 0x08 supervisor call *);
  Asm.branch_to a "pabt_h" (* 0x0C prefetch abort *);
  Asm.branch_to a "dabt_h" (* 0x10 data abort *);
  Asm.nop a (* 0x14 reserved *);
  Asm.branch_to a "irq_h" (* 0x18 irq *);
  Asm.label a "undef_h";
  Asm.mov_r a ~s:true 15 14;
  Asm.label a "svc_h";
  Asm.mov_r a ~s:true 15 14;
  Asm.label a "dabt_h";
  Asm.sub a ~s:true 15 14 4 (* skip the faulting access *);
  Asm.label a "irq_h";
  Asm.sub a ~s:true 15 14 4;
  Asm.label a "pabt_h";
  Asm.mov32 a 0 0xDEAD0BAD (* distinctive: must never happen *);
  Asm.branch_to a "halt";
  Asm.label a "start";
  Asm.mov32 a Insn.sp (scratch_base + 0xE000);
  Asm.mov32 a 6 scratch_base;
  Asm.mov32 a 9 fault_window;
  List.iteri (fun i r -> Asm.mov32 a r (0x01010101 * (i + 1))) [ 0; 1; 2; 3; 4; 5; 7; 8 ];
  List.iter (Asm.emit a) body;
  (* fold every data register into r0 *)
  List.iter (fun r -> Asm.eor_r a 0 0 r) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  if flags_checksum then begin
    Asm.mrs a 1;
    Asm.and_ a 1 1 0xF0000000;
    Asm.eor_r a 0 0 1
  end;
  (* rolling hash of the scratch window (covers stray stores) *)
  Asm.mov32 a 2 (scratch_base - 512);
  Asm.mov32 a 3 (scratch_base + 1024);
  Asm.label a "sum";
  Asm.ldr a ~index:Insn.Post_indexed 4 2 4;
  Asm.emit a
    (Insn.make
       (Insn.Dp
          {
            op = Insn.EOR;
            s = false;
            rd = 0;
            rn = 4;
            op2 = Insn.Reg_shift_imm { rm = 0; kind = Insn.ROR; amount = 27 };
          }));
  Asm.cmp_r a 2 3;
  Asm.branch_to a ~cond:Cond.NE "sum";
  Asm.label a "halt";
  Asm.mov32 a 1 Repro_machine.Bus.syscon_base;
  (* isolate the MMIO store in its own (spill-free) block *)
  Asm.branch_to a "halt2";
  Asm.label a "halt2";
  Asm.str a 0 1 0;
  Asm.label a "spin";
  Asm.branch_to a "spin";
  Asm.assemble a

let budget = 400_000

let run_flat_ref (origin, words) =
  let m = T.Ref_machine.create () in
  T.Ref_machine.load_image m origin words;
  match T.Ref_machine.run m ~max_steps:budget with
  | T.Ref_machine.Halted c, _ -> c
  | T.Ref_machine.Step_limit, _ -> Alcotest.fail "reference hit the step limit"
  | T.Ref_machine.Decode_error e, _ -> Alcotest.fail ("reference decode error: " ^ e)

let run_flat_sys ?inject ?ruleset ?shadow_depth ?quarantine_threshold mode
    (origin, words) =
  let sys = D.System.create ?inject ?ruleset ?shadow_depth ?quarantine_threshold mode in
  D.System.load_image sys origin words;
  let res = D.System.run ~max_guest_insns:budget sys in
  (res.T.Engine.reason, sys)

let all_modes =
  ("qemu", D.System.Qemu)
  :: List.map (fun (n, o) -> (n, D.System.Rules o)) D.Opt.levels

(* ---- 1. differential fuzz through the exception paths ---- *)

let prop_faulting_blocks_agree =
  QCheck.Test.make ~count:40 ~name:"faulting blocks agree on all engines"
    (Gen.arbitrary_robust_block 12)
    (fun block ->
      let image = flat_image block in
      let expected = run_flat_ref image in
      List.for_all
        (fun (name, mode) ->
          match fst (run_flat_sys mode image) with
          | `Halted c ->
            if c <> expected then
              QCheck.Test.fail_reportf "%s halted %#x, reference %#x" name c expected
            else true
          | `Insn_limit | `Livelock _ | `Deadline -> QCheck.Test.fail_reportf "%s hit the insn limit" name)
        all_modes)

(* ---- 2. transient fault injection is absorbed ---- *)

let test_transient_identity () =
  let spec = W.find "gcc" in
  let iters = max 1 (8_000 / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  let run ?inject () =
    let sys = D.System.create ?inject (D.System.Rules D.Opt.full) in
    K.load image (fun base words -> D.System.load_image sys base words);
    let res = D.System.run ~max_guest_insns:2_000_000 sys in
    (res.T.Engine.reason, D.System.uart_output sys)
  in
  let clean = run () in
  List.iter
    (fun seed ->
      let inject = Fi.create ~seed ~rate:0.001 () in
      (* rule corruption is a surfaceable fault by design; it is
         exercised by the shadow-verification tests below *)
      Fi.set_rate inject Fi.Rule_corrupt 0.0;
      let injected = run ~inject () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d outcome matches clean run" seed)
        true (injected = clean);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d fired faults" seed)
        true
        (Fi.total_fired inject > 0))
    [ 7; 11 ]

(* ---- 3. a corrupted rule is quarantined by shadow verification ---- *)

(* A wrong rule for [add rd, rn, #imm]: computes rn + imm + 1.
   Inserted ahead of the builtins so it wins matching until shadow
   verification quarantines it. *)
let corrupt_rule =
  {
    R.Rule.id = 9999;
    name = "corrupt_add_imm";
    guest =
      [
        R.Rule.G_dp
          { ops = [ Insn.ADD ]; s = false; rd = 0; rn = 1; op2 = R.Rule.G_imm (R.Rule.P_imm 0) };
      ];
    host =
      [
        R.Rule.H_mov { dst = R.Rule.H_param 0; src = R.Rule.H_param 1 };
        R.Rule.H_alu
          { op = `Fixed Repro_x86.Insn.Add; dst = R.Rule.H_param 0; src = R.Rule.H_imm (R.Rule.P_imm 0) };
        R.Rule.H_alu
          { op = `Fixed Repro_x86.Insn.Add; dst = R.Rule.H_param 0; src = R.Rule.H_imm (R.Rule.Fixed 1) };
      ];
    n_reg_params = 2;
    n_imm_params = 1;
    flags = { guest_writes = false; host_clobbers = true; convention = None };
    carry_in = None;
    require_distinct = [];
    source = `Builtin;
  }

(* A short loop whose [add rd, rn, #imm]s the wrong rule matches. *)
let corrupt_rule_image () =
  let user =
    let a = Asm.create ~origin:K.user_code_base () in
    Asm.mov32 a Insn.sp K.user_stack_top;
    Asm.mov a 0 5;
    Asm.mov a 6 3;
    Asm.label a "loop";
    Asm.add a 1 0 7;
    Asm.branch_to a "b1";
    Asm.label a "b1";
    Asm.add a 2 0 9;
    Asm.branch_to a "b2";
    Asm.label a "b2";
    Asm.sub ~s:true a 6 6 1;
    Asm.branch_to a ~cond:Cond.NE "loop";
    Asm.add_r a 0 1 2;
    Asm.mov a 7 K.sys_exit;
    Asm.svc a 0;
    snd (Asm.assemble a)
  in
  K.build ~user_program:user ()

(* The wrong rule ahead of the builtins, under shadow depth 2 and
   quarantine threshold 2, with [corrupt_rule_image] loaded. *)
let corrupt_rule_machine ?(mode = D.System.Rules D.Opt.full) () =
  let ruleset = R.Ruleset.of_list (corrupt_rule :: R.Builtin.all ()) in
  let sys = D.System.create ~ruleset ~shadow_depth:2 ~quarantine_threshold:2 mode in
  K.load (corrupt_rule_image ()) (fun base words -> D.System.load_image sys base words);
  sys

let test_corrupt_rule_quarantined () =
  let image = corrupt_rule_image () in
  let m = T.Ref_machine.create () in
  K.load image (fun base words -> T.Ref_machine.load_image m base words);
  let expected =
    match T.Ref_machine.run m ~max_steps:1_000_000 with
    | T.Ref_machine.Halted c, _ -> c
    | _ -> Alcotest.fail "reference did not halt"
  in
  let sys = corrupt_rule_machine () in
  let ruleset = Option.get sys.D.System.ruleset in
  let res = D.System.run ~max_guest_insns:1_000_000 sys in
  let s = D.System.stats sys in
  Alcotest.(check bool) "exit code matches reference" true (res.T.Engine.reason = `Halted expected);
  Alcotest.(check int) "exactly the corrupt rule is quarantined" 1 (R.Ruleset.quarantined_count ruleset);
  Alcotest.(check bool) "divergences were detected" true (s.Stats.shadow_divergences > 0);
  Alcotest.(check bool) "affected blocks fell back to the baseline" true
    (s.Stats.quarantine_fallbacks > 0);
  (* coverage x robustness: the quarantine re-routes the affected
     blocks through the baseline translator, so the corrupted run
     shows baseline-tier retirements a clean run of the same workload
     does not — and the tier partition stays exact through the
     divergence-repair / blacklist path. *)
  let module Cov = Repro_covscope in
  let src = Cov.Report.of_stats s in
  Alcotest.(check (option string)) "tier partition holds after quarantine" None
    (Cov.Report.partition_error src);
  let tier_count report tr =
    report.Cov.Report.tiers.(Cov.Attr.tier_index tr).Cov.Report.n
  in
  let report = Cov.Report.make src in
  Alcotest.(check bool) "the rule tier served before the divergence" true
    (tier_count report Cov.Attr.Rule > 0);
  let clean =
    let sys2 =
      D.System.create ~ruleset:(R.Ruleset.of_list (R.Builtin.all ()))
        (D.System.Rules D.Opt.full)
    in
    K.load image (fun base words -> D.System.load_image sys2 base words);
    ignore (D.System.run ~max_guest_insns:1_000_000 sys2);
    Cov.Report.make (Cov.Report.of_stats (D.System.stats sys2))
  in
  Alcotest.(check bool)
    "quarantine moved subsequent retirements to the baseline tier" true
    (tier_count report Cov.Attr.Baseline > tier_count clean Cov.Attr.Baseline)

(* The translator's and the ruleset's health after the wrong rule's
   quarantine, as a snapshot's [translator] section (blacklist,
   strikes, quarantined rules, shadow-verification progress, counters)
   and a depot's health section (the first three) write it. Decoded
   from the bytes, so the pin reads no translator API. *)
let test_health_bytes_pinned () =
  let module Snapshot = Repro_snapshot.Snapshot in
  let module Dec = Snapshot.Dec in
  let sys = corrupt_rule_machine () in
  ignore (D.System.run ~max_guest_insns:1_000_000 sys);
  let translator = Snapshot.find (D.System.snapshot sys) "translator" in
  let health = Repro_aotcache.Depot.health (D.System.depot_capture sys) in
  let ids d = Dec.list d Dec.int and counts d = Dec.list d (Dec.pair Dec.int Dec.int) in
  let blacklist, quarantined, shadow_done, shadow_tries =
    Dec.whole ~name:"translator" translator @@ fun d ->
    let blacklist = ids d in
    ignore (counts d);
    let quarantined = ids d in
    let shadow_done = counts d in
    let shadow_tries = counts d in
    List.iter (fun _ -> ignore (Dec.int d)) [ (); (); () ];
    (blacklist, quarantined, shadow_done, shadow_tries)
  in
  Alcotest.(check bool) "a PC is blacklisted" true (blacklist <> []);
  Alcotest.(check (list int)) "the wrong rule is quarantined" [ corrupt_rule.R.Rule.id ]
    quarantined;
  Alcotest.(check bool) "shadow tables are non-empty" true
    (shadow_done <> [] && shadow_tries <> []);
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "translator section" "be41c56224b7430e3ceec25f7cf737e0" (md5 translator);
  Alcotest.(check string) "depot health section" "5c8b8d3f659b411624861464a99764d0" (md5 health)

(* ---- 4. constant rule-output corruption: shadow repairs to the
   reference result ---- *)

let prop_rule_corruption_repaired =
  QCheck.Test.make ~count:15 ~name:"rule-output corruption repaired by shadow verification"
    (Gen.arbitrary_plain_block 10)
    (fun block ->
      (* no flags checksum: the epilogue's [mrs] makes its block
         unshadowable, so a corruption there could go undetected *)
      let image = flat_image ~flags_checksum:false block in
      let expected = run_flat_ref image in
      let inject = Fi.create ~seed:42 ~rate:0.0 () in
      Fi.set_rate inject Fi.Rule_corrupt 1.0;
      let reason, sys =
        run_flat_sys ~inject ~shadow_depth:8 ~quarantine_threshold:2
          (D.System.Rules D.Opt.full) image
      in
      let s = D.System.stats sys in
      match reason with
      | `Halted c ->
        if c <> expected then
          QCheck.Test.fail_reportf
            "halted %#x, reference %#x (replays %d, divergences %d)" c expected
            s.Stats.shadow_replays s.Stats.shadow_divergences
        else true
      | `Insn_limit | `Livelock _ | `Deadline -> QCheck.Test.fail_reportf "hit the insn limit")

(* ---- 5. the fault-draw stream is pinned ----

   Every [Fi.fire] draws from one PRNG, so the number and order of
   draws across the bus, the softMMU, the interpreter's memory
   interface, the helpers and the shadow replay decide which faults a
   fleet plan sees. This run exercises all of them under surfaced bus
   faults and shadow verification; its per-site counters and final
   injector state were recorded before the memory interface moved from
   [result] returns to the [Mem.Fault] exception, and must not move. *)

type draw_run = {
  label : string;
  mode : D.System.mode;
  shadow_depth : int;
  guest_insns : int;
  prng_state : int64;
  draws : (Fi.site * int * int) list;  (** site, events, fired *)
}

let draw_runs =
  [
    {
      label = "rules full, shadow 4";
      mode = D.System.Rules D.Opt.full;
      shadow_depth = 4;
      guest_insns = 54537;
      prng_state = -3158188517708491939L;
      draws =
        [
          (Fi.Bus_read, 17034, 5); (Fi.Bus_write, 24, 0); (Fi.Tlb_flush, 16517, 37);
          (Fi.Walk_corrupt, 4689, 9); (Fi.Spurious_irq, 10072, 20); (Fi.Tb_flush, 111, 1);
          (Fi.Rule_corrupt, 63, 1); (Fi.Host_livelock, 62, 0); (Fi.Depot_torn, 0, 0);
          (Fi.Depot_trunc, 0, 0); (Fi.Depot_flip, 0, 0);
        ];
    };
    {
      label = "qemu";
      mode = D.System.Qemu;
      shadow_depth = 0;
      guest_insns = 23734;
      prng_state = 3731650043864239131L;
      draws =
        [
          (Fi.Bus_read, 2196, 1); (Fi.Bus_write, 12, 0); (Fi.Tlb_flush, 20, 0);
          (Fi.Walk_corrupt, 713, 0); (Fi.Spurious_irq, 4361, 11); (Fi.Tb_flush, 62, 0);
          (Fi.Rule_corrupt, 0, 0); (Fi.Host_livelock, 0, 0); (Fi.Depot_torn, 0, 0);
          (Fi.Depot_trunc, 0, 0); (Fi.Depot_flip, 0, 0);
        ];
    };
  ]

let test_fault_draws_pinned () =
  let spec = W.find "gcc" in
  let user = W.generate spec ~iterations:(max 1 (60_000 / W.insns_per_iteration spec)) in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  List.iter
    (fun r ->
      let inject = Fi.create ~seed:7 ~rate:0.002 ~behavior:Fi.Surface () in
      Fi.set_rate inject Fi.Bus_read 0.0002;
      Fi.set_rate inject Fi.Rule_corrupt 0.05;
      let sys = D.System.create ~inject ~shadow_depth:r.shadow_depth r.mode in
      K.load image (fun base words -> D.System.load_image sys base words);
      let res = D.System.run ~max_guest_insns:2_000_000 sys in
      let check what = Alcotest.(check int) (r.label ^ ": " ^ what) in
      Alcotest.(check bool) (r.label ^ ": a surfaced fault panics the guest") true
        (res.T.Engine.reason = `Halted 0xdead0002);
      check "guest insns" r.guest_insns (D.System.stats sys).Stats.guest_insns;
      List.iter
        (fun (site, events, fired) ->
          check (Fi.site_name site ^ " events") events (Fi.events inject site);
          check (Fi.site_name site ^ " fired") fired (Fi.fired inject site))
        r.draws;
      let rates = List.map (fun (site, _, _) -> Int64.bits_of_float (Fi.rate inject site)) r.draws in
      let column f = List.map (fun d -> Int64.of_int (f d)) r.draws in
      let expected =
        Array.of_list
          ([ r.prng_state; 1L; Int64.of_int (List.length r.draws) ]
          @ rates
          @ column (fun (_, e, _) -> e)
          @ column (fun (_, _, f) -> f))
      in
      Alcotest.(check (array int64)) (r.label ^ ": injector export") expected (Fi.export inject))
    draw_runs

let suite =
  [
    ( "robustness",
      [
        QCheck_alcotest.to_alcotest prop_faulting_blocks_agree;
        Alcotest.test_case "transient injection is absorbed" `Slow test_transient_identity;
        Alcotest.test_case "corrupted rule is quarantined" `Quick test_corrupt_rule_quarantined;
        Alcotest.test_case "health bytes are pinned" `Quick test_health_bytes_pinned;
        QCheck_alcotest.to_alcotest prop_rule_corruption_repaired;
        Alcotest.test_case "fault-draw stream is pinned" `Quick test_fault_draws_pinned;
      ] );
  ]
