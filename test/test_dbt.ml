open Repro_arm
module T = Repro_tcg
module D = Repro_dbt
module Bus = Repro_machine.Bus
module Stats = Repro_x86.Stats
module Scope = Repro_perfscope.Scope

(* Differential testing of the rule-based engine at every optimization
   level against the reference interpreter. Helper calls poison all
   host registers, so any missing CPU-state coordination shows up as
   0xBAD... values here rather than as a silently wrong figure. *)

let emit_halt asm =
  Asm.mov32 asm 10 Bus.syscon_base;
  Asm.str asm 11 10 0

let assemble program =
  let asm = Asm.create () in
  program asm;
  emit_halt asm;
  snd (Asm.assemble asm)

let levels = D.Opt.levels @ [ ("future", D.Opt.future) ]

let run_mode ?(max_insns = 300_000) mode words =
  let sys = D.System.create mode in
  D.System.load_image sys 0 words;
  let res = D.System.run ~max_guest_insns:max_insns sys in
  (sys, res)

let run_ref ?(max_steps = 300_000) words =
  let m = T.Ref_machine.create () in
  T.Ref_machine.load_image m 0 words;
  let outcome, steps = T.Ref_machine.run m ~max_steps in
  (m, outcome, steps)

let snapshot_of_sys sys = Cpu.to_snapshot (D.System.cpu sys)

let state_mismatch ref_snap got_snap =
  let regs_ok =
    Array.sub ref_snap.Cpu.regs 0 15 = Array.sub got_snap.Cpu.regs 0 15
  in
  let flags_ok =
    Cond.flags_of_word ref_snap.Cpu.cpsr = Cond.flags_of_word got_snap.Cpu.cpsr
  in
  if regs_ok && flags_ok then None
  else
    Some
      (Format.asprintf "expected:@\n%a@\ngot:@\n%a" Cpu.pp_snapshot ref_snap
         Cpu.pp_snapshot got_snap)

let differential_all_levels program =
  let words = assemble program in
  let ref_m, outcome, _ = run_ref words in
  (match outcome with
  | T.Ref_machine.Halted _ -> ()
  | _ -> Alcotest.fail "reference did not halt");
  let ref_snap = Cpu.to_snapshot ref_m.T.Ref_machine.cpu in
  List.iter
    (fun (name, opt) ->
      let sys, res = run_mode (D.System.Rules opt) words in
      (match res.T.Engine.reason with
      | `Halted _ -> ()
      | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.failf "[%s] hit insn limit" name);
      match state_mismatch ref_snap (snapshot_of_sys sys) with
      | None -> ()
      | Some msg -> Alcotest.failf "[%s] state mismatch:@\n%s" name msg)
    levels

(* --- functional tests --- *)

let test_arith () =
  differential_all_levels (fun a ->
      Asm.mov a 0 10;
      Asm.mov a 1 3;
      Asm.add_r a ~s:true 2 0 1;
      Asm.sub_r a ~s:true 3 0 1;
      Asm.mul a 4 0 1;
      Asm.and_r a 5 0 1;
      Asm.orr_r a 6 0 1;
      Asm.eor_r a 7 0 1;
      Asm.mov32 a 8 0xFFFFFFFF;
      Asm.add_r a ~s:true 8 8 8;
      Asm.emit a
        (Insn.make
           (Insn.Dp
              { op = Insn.ADC; s = true; rd = 11; rn = 0; op2 = Insn.imm_operand_exn 0 })))

let test_conditionals () =
  differential_all_levels (fun a ->
      Asm.mov a 0 5;
      Asm.cmp a 0 5;
      Asm.mov a ~cond:Cond.EQ 1 1;
      Asm.mov a ~cond:Cond.NE 2 2;
      Asm.cmp a 0 9;
      Asm.mov a ~cond:Cond.LT 3 3;
      Asm.mov a ~cond:Cond.GE 4 4;
      Asm.mov a ~cond:Cond.HI 5 5;
      Asm.mov a ~cond:Cond.LS 6 6;
      Asm.mov a ~cond:Cond.CS 7 7;
      Asm.mov a ~cond:Cond.CC 8 8;
      Asm.mov a 11 0)

let test_consecutive_conditionals () =
  (* The Fig. 9 scenario: a run of same-condition instructions. *)
  differential_all_levels (fun a ->
      Asm.mov a 0 1;
      Asm.cmp a 0 1;
      Asm.add a ~cond:Cond.EQ 1 1 10;
      Asm.add a ~cond:Cond.EQ 2 2 20;
      Asm.add a ~cond:Cond.EQ 3 3 30;
      Asm.add a ~cond:Cond.NE 4 4 40;
      Asm.mov a 11 0)

let test_loop () =
  differential_all_levels (fun a ->
      Asm.mov a 0 0;
      Asm.mov a 1 100;
      Asm.label a "loop";
      Asm.add_r a 0 0 1;
      Asm.sub a ~s:true 1 1 1;
      Asm.branch_to a ~cond:Cond.NE "loop";
      Asm.mov_r a 11 0)

let test_memory () =
  differential_all_levels (fun a ->
      Asm.mov32 a 0 0x10000;
      Asm.mov32 a 1 0xDEADBEEF;
      Asm.str a 1 0 0;
      Asm.ldr a 2 0 0;
      Asm.str a ~width:Insn.Byte 2 0 100;
      Asm.ldr a ~width:Insn.Byte 3 0 100;
      (* consecutive memory ops (Fig. 10 scenario) *)
      Asm.str a 1 0 4;
      Asm.str a 2 0 8;
      Asm.str a 3 0 12;
      Asm.ldr a 4 0 4;
      Asm.ldr a 5 0 8;
      Asm.mov32 a Insn.sp 0x20000;
      Asm.push a (Asm.reg_mask [ 1; 2; 3 ]);
      Asm.mov a 1 0;
      Asm.mov a 2 0;
      Asm.mov a 3 0;
      Asm.pop a (Asm.reg_mask [ 1; 2; 3 ]);
      Asm.mov a 11 0)

let test_mem_with_live_flags () =
  (* Flags defined, then memory access, then flags consumed — the
     exact define-before-use scheduling scenario (Fig. 12). *)
  differential_all_levels (fun a ->
      Asm.mov32 a 0 0x10000;
      Asm.mov a 1 7;
      Asm.mov a 2 7;
      Asm.cmp_r a 1 2;
      Asm.ldr a 3 0 0;
      Asm.mov a ~cond:Cond.EQ 4 42;
      Asm.branch_to a ~cond:Cond.NE "skip";
      Asm.add a 5 5 1;
      Asm.label a "skip";
      Asm.mov a 11 0)

let test_unpinned_registers () =
  (* r9-r12 are unpinned: every use goes through the QEMU fallback. *)
  differential_all_levels (fun a ->
      Asm.mov a 9 11;
      Asm.mov a 10 22;
      Asm.add_r a 11 9 10;
      Asm.mov_r a 12 11;
      Asm.add a ~s:true 9 12 1;
      Asm.mov a ~cond:Cond.NE 0 1;
      Asm.mov_r a 11 0;
      Asm.add a 11 11 33)

let test_calls () =
  differential_all_levels (fun a ->
      Asm.mov a 0 0;
      Asm.mov32 a Insn.sp 0x20000;
      Asm.branch_to a ~link:true "f";
      Asm.add a 0 0 100;
      Asm.branch_to a "end";
      Asm.label a "f";
      Asm.push a (Asm.reg_mask [ 14 ]);
      Asm.add a 0 0 1;
      Asm.pop a (Asm.reg_mask [ 14 ]);
      Asm.bx a Insn.lr;
      Asm.label a "end";
      Asm.mov_r a 11 0)

let test_system_insns () =
  differential_all_levels (fun a ->
      Asm.mov32 a 0 0xF0000001;
      Asm.vmsr a 0;
      Asm.vmrs a 1;
      Asm.vmrs a 15;
      Asm.mov a ~cond:Cond.MI 2 1;
      Asm.mrs a 3;
      Asm.mov32 a 4 0x4000;
      Asm.mcr a ~crn:2 4;
      Asm.mrc a ~crn:2 5;
      Asm.mov a 11 0)

let test_svc_roundtrip () =
  differential_all_levels (fun a ->
      Asm.branch_to a "start";
      Asm.udf a 1;
      Asm.branch_to a "svc_handler";
      Asm.udf a 3;
      Asm.udf a 4;
      Asm.udf a 5;
      Asm.udf a 6;
      Asm.label a "start";
      Asm.mov a 0 5;
      Asm.cmp a 0 5;
      (* flags must survive the context switch into the handler *)
      Asm.svc a 1;
      Asm.mov a ~cond:Cond.EQ 1 42;
      Asm.mov a 11 0;
      Asm.branch_to a "halt";
      Asm.label a "svc_handler";
      Asm.add a 2 2 10;
      Asm.emit a
        (Insn.make
           (Insn.Dp
              { op = Insn.MOV; s = true; rd = 15; rn = 0;
                op2 = Insn.Reg_shift_imm { rm = 14; kind = Insn.LSL; amount = 0 } }));
      Asm.label a "halt")

let test_rsb_bic_shift () =
  differential_all_levels (fun a ->
      Asm.mov a 0 12;
      Asm.rsb a 1 0 0;
      Asm.mov32 a 2 0xFF0F;
      Asm.emit a
        (Insn.make
           (Insn.Dp
              { op = Insn.BIC; s = false; rd = 3; rn = 2;
                op2 = Insn.Reg_shift_imm { rm = 0; kind = Insn.LSL; amount = 0 } }));
      Asm.lsl_ a 4 0 4;
      Asm.lsr_ a 5 2 2;
      Asm.emit a
        (Insn.make
           (Insn.Dp
              { op = Insn.ADD; s = true; rd = 6; rn = 0;
                op2 = Insn.Reg_shift_imm { rm = 2; kind = Insn.LSL; amount = 3 } }));
      Asm.mov a 11 0)

(* Zero-amount shifts are identity moves, but a shift rule compiled to
   a host shift-by-0 leaves host flags untouched — the S variants must
   still produce N/Z from the result (regression: rules engine
   extracted stale flags for movs rd, rm, lsr #0). *)
let test_zero_amount_shift_flags () =
  differential_all_levels (fun a ->
      Asm.mov32 a 1 0x80000000;
      Asm.mov a 2 0;
      List.iter
        (fun (kind, s, rd, rm) ->
          Asm.emit a
            (Insn.make
               (Insn.Dp
                  { op = Insn.MOV; s; rd; rn = 0;
                    op2 = Insn.Reg_shift_imm { rm; kind; amount = 0 } })))
        [
          (Insn.ROR, true, 5, 1);
          (Insn.LSR, false, 6, 1);  (* non-S: value only *)
          (Insn.ASR, false, 7, 1);
          (Insn.ASR, true, 4, 2);   (* zero result: Z=1 N=0 ... *)
          (* ... then the last flag writer must flip to N=1 Z=0 — a
             stale extraction keeps the previous flags instead *)
          (Insn.LSR, true, 3, 1);
        ];
      Asm.mov a 11 0)

(* --- performance-shape sanity --- *)

let mixed_workload a =
  Asm.mov a 0 0;
  Asm.mov a 1 2000;
  Asm.mov32 a 2 0x10000;
  Asm.label a "loop";
  Asm.add_r a 0 0 1;
  Asm.str a 0 2 0;
  Asm.ldr a 3 2 0;
  Asm.and_ a 4 3 0xFF;
  Asm.orr_r a 5 4 0;
  Asm.sub a ~s:true 1 1 1;
  Asm.branch_to a ~cond:Cond.NE "loop";
  Asm.mov_r a 11 0

let test_signed_load_memory () =
  differential_all_levels (fun a ->
      Asm.mov32 a 2 0x20000;
      Asm.mov32 a 0 0xFFFF8A90;
      Asm.str a 0 2 0;
      Asm.ldrs a 1 2 0;             (* -> 0xFFFFFF90 *)
      Asm.ldrs a ~half:true 3 2 0;  (* -> 0xFFFF8A90 *)
      Asm.ldrs a 4 2 1;             (* -> 0xFFFFFF8A *)
      Asm.mov32 a 0 0x00007F41;
      Asm.str a 0 2 4;
      Asm.ldrs a ~half:true 5 2 4;  (* positive: 0x7F41 *)
      (* unpinned destination takes the env path *)
      Asm.ldrs a ~half:true 9 2 0;
      Asm.add_r a 6 9 5;
      (* conditional signed load *)
      Asm.cmp a 5 0;
      Asm.ldrs a ~cond:Cond.GT 7 2 4;
      Asm.ldrs a ~cond:Cond.LE ~half:true 8 2 4;
      Asm.mov a 11 0)

let test_clz_fallback () =
  (* CLZ has no rule and no IR lowering: both engines emulate it via
     the interpreter helper, with full state coordination. *)
  differential_all_levels (fun a ->
      Asm.mov32 a 0 0x00F00000;
      Asm.clz a 1 0;
      Asm.mov a 2 0;
      Asm.clz a 3 2;
      (* flags must survive the helper round-trip *)
      Asm.cmp a 1 8;
      Asm.clz a ~cond:Cond.EQ 4 0;
      Asm.mov a ~cond:Cond.NE 5 7;
      Asm.add_r a 6 1 3;
      Asm.mov a 11 0)

let test_halfword_memory () =
  differential_all_levels (fun a ->
      Asm.mov32 a 2 0x20000;
      Asm.mov32 a 0 0xCAFEBABE;
      Asm.str a ~width:Insn.Half 0 2 0;
      Asm.ldr a ~width:Insn.Half 1 2 0;
      Asm.mov32 a 3 0x11223344;
      Asm.str a 3 2 4;
      Asm.str a ~width:Insn.Half 0 2 4;
      Asm.ldr a 4 2 4;
      Asm.str a ~width:Insn.Half ~index:Insn.Pre_indexed 3 2 2;
      Asm.ldr a ~width:Insn.Half ~index:Insn.Post_indexed 5 2 2;
      (* conditional halfword access *)
      Asm.cmp a 1 0;
      Asm.ldr a ~cond:Cond.NE ~width:Insn.Half 6 2 0;
      Asm.str a ~cond:Cond.EQ ~width:Insn.Half 3 2 8;
      Asm.mov a 11 0)

let test_full_opt_beats_base () =
  let words = assemble mixed_workload in
  let host_insns mode =
    let sys, res = run_mode mode words in
    (match res.T.Engine.reason with
    | `Halted _ -> ()
    | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.fail "insn limit");
    (D.System.stats sys).Stats.host_insns
  in
  let base = host_insns (D.System.Rules D.Opt.base) in
  let full = host_insns (D.System.Rules D.Opt.full) in
  let qemu = host_insns D.System.Qemu in
  Alcotest.(check bool)
    (Printf.sprintf "full (%d) < base (%d)" full base)
    true (full < base);
  Alcotest.(check bool)
    (Printf.sprintf "full (%d) < qemu (%d)" full qemu)
    true (full < qemu)

let test_sync_cost_decreases_with_levels () =
  let words = assemble mixed_workload in
  let sync_per_guest opt =
    let sys, _ = run_mode (D.System.Rules opt) words in
    Stats.sync_per_guest (D.System.stats sys)
  in
  let seq = List.map (fun (_, o) -> sync_per_guest o) levels in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 0.01 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool)
    (String.concat " >= " (List.map (Printf.sprintf "%.2f") seq))
    true (monotone seq)

let test_rule_coverage_counted () =
  let words = assemble mixed_workload in
  let sys, _ = run_mode (D.System.Rules D.Opt.full) words in
  match sys.D.System.rule_translator with
  | None -> Alcotest.fail "no rule translator"
  | Some tr ->
    Alcotest.(check bool) "some rule coverage" true
      ((D.Translator_rule.state tr).D.Translator_rule.rule_covered > 0)

let test_sys_insn_classification () =
  (* UMULL is emulated through the interpreter helper but is NOT a
     system-level instruction; the Table I profile must not count it.
     MRS is system-level and must be counted exactly. *)
  let words =
    assemble (fun a ->
        Asm.mov a 0 7;
        Asm.mov a 1 9;
        Asm.umull a 2 3 0 1;
        Asm.umull a 4 5 0 1;
        Asm.umull a 6 7 0 1;
        Asm.mrs a 8;
        Asm.mrs a 9;
        Asm.mov a 11 0)
  in
  List.iter
    (fun mode ->
      let sys, res = run_mode mode words in
      (match res.T.Engine.reason with
      | `Halted _ -> ()
      | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.fail "insn limit");
      let s = D.System.stats sys in
      Alcotest.(check int) "mrs counted as system-level" 2 s.Stats.sys_insns;
      Alcotest.(check bool) "umull went through helpers" true
        (s.Stats.helper_calls >= 5))
    [ D.System.Qemu; D.System.Rules D.Opt.full ]

let test_tiny_code_cache () =
  (* With room for a single TB the engine must flush and retranslate
     on every cross-TB transition, yet execution stays correct at every
     level. *)
  let words = assemble mixed_workload in
  let ref_m, outcome, _ = run_ref words in
  (match outcome with
  | T.Ref_machine.Halted _ -> ()
  | _ -> Alcotest.fail "reference did not halt");
  let ref_snap = Cpu.to_snapshot ref_m.T.Ref_machine.cpu in
  List.iter
    (fun (name, opt) ->
      let sys = D.System.create ~tb_capacity:1 (D.System.Rules opt) in
      D.System.load_image sys 0 words;
      let res = D.System.run ~max_guest_insns:300_000 sys in
      (match res.T.Engine.reason with
      | `Halted _ -> ()
      | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.failf "[%s] insn limit" name);
      Alcotest.(check bool)
        (Printf.sprintf "[%s] capacity flushes happened" name)
        true
        (T.Tb.Cache.full_flushes sys.D.System.cache > 0);
      match state_mismatch ref_snap (snapshot_of_sys sys) with
      | None -> ()
      | Some msg -> Alcotest.failf "[%s] state mismatch:@\n%s" name msg)
    levels;
  (* an ample cache must never flush on this workload *)
  let sys = D.System.create (D.System.Rules D.Opt.full) in
  D.System.load_image sys 0 words;
  ignore (D.System.run ~max_guest_insns:300_000 sys);
  Alcotest.(check int) "no flushes at default capacity" 0
    (T.Tb.Cache.full_flushes sys.D.System.cache)

(* Hot-block table totals: attributed host and guest instructions. *)
let block_host sc =
  List.fold_left (fun acc (b : Scope.block) -> acc + b.Scope.host_spent) 0 (Scope.blocks sc)

let block_guest sc =
  List.fold_left (fun acc (b : Scope.block) -> acc + b.Scope.guest_retired) 0 (Scope.blocks sc)

let test_profile_attribution () =
  (* Every retired guest instruction must be attributed to exactly one
     TB; host attribution is a lower bound on the total (engine glue is
     deliberately unattributed). *)
  let words = assemble mixed_workload in
  let p = Scope.create () in
  let sys = D.System.create ~scope:p (D.System.Rules D.Opt.full) in
  D.System.load_image sys 0 words;
  let res = D.System.run ~max_guest_insns:300_000 sys in
  (match res.T.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.fail "insn limit");
  let s = D.System.stats sys in
  Alcotest.(check int) "guest insns fully attributed" s.Stats.guest_insns
    (block_guest p);
  Alcotest.(check bool) "host attribution is a lower bound" true
    (block_host p > 0 && block_host p <= s.Stats.host_insns);
  (* the glue left unattributed is the engine's own dispatch/translation
     cost — it must be exactly the Tag_glue share minus helper glue,
     so sanity-check it is well under half the total *)
  Alcotest.(check bool) "most cost attributed" true
    (2 * block_host p > s.Stats.host_insns)

let test_profile_hot_ranking () =
  let words = assemble mixed_workload in
  let p = Scope.create () in
  let sys = D.System.create ~scope:p D.System.Qemu in
  D.System.load_image sys 0 words;
  ignore (D.System.run ~max_guest_insns:300_000 sys);
  (match Scope.top_blocks ~by:`Execs 1 p with
  | [ hottest ] ->
    List.iter
      (fun (e : Scope.block) ->
        Alcotest.(check bool) "top-by-execs dominates" true
          (hottest.Scope.execs >= e.Scope.execs))
      (Scope.blocks p);
    (* the loop body dominates: it must have executed many times *)
    Alcotest.(check bool) "hot block is hot" true (hottest.Scope.execs > 100)
  | _ -> Alcotest.fail "no entries");
  match Scope.top_blocks ~by:`Host 2 p with
  | [ a; b ] ->
    Alcotest.(check bool) "host ranking ordered" true
      (a.Scope.host_spent >= b.Scope.host_spent)
  | _ -> Alcotest.fail "expected 2 entries"

let test_profile_across_flushes () =
  (* A loop whose body spans two TBs under a one-TB cache: every
     iteration evicts and retranslates both blocks. The profile keys
     on (pc, privilege), so records must aggregate across those
     retranslations rather than duplicate, and the attribution
     invariants must survive the churn. *)
  let words =
    assemble (fun a ->
        Asm.mov a 0 0;
        Asm.mov a 1 50;
        Asm.label a "top";
        Asm.add_r a 0 0 1;
        Asm.branch_to a "mid";
        Asm.label a "mid";
        Asm.sub a ~s:true 1 1 1;
        Asm.branch_to a ~cond:Cond.NE "top";
        Asm.mov a 11 0)
  in
  let p = Scope.create () in
  let sys = D.System.create ~tb_capacity:1 ~scope:p (D.System.Rules D.Opt.full) in
  D.System.load_image sys 0 words;
  (match (D.System.run ~max_guest_insns:300_000 sys).T.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.fail "insn limit");
  let s = D.System.stats sys in
  Alcotest.(check bool)
    (Printf.sprintf "workload forced retranslation (%d translations, %d entries)"
       s.Stats.tb_translations
       (List.length (Scope.blocks p)))
    true
    (s.Stats.tb_translations > List.length (Scope.blocks p));
  Alcotest.(check int) "guest insns fully attributed despite flushes"
    s.Stats.guest_insns (block_guest p);
  Alcotest.(check bool) "host attribution still a lower bound" true
    (block_host p > 0 && block_host p <= s.Stats.host_insns);
  (* each distinct block appears exactly once *)
  let keys =
    List.map
      (fun (e : Scope.block) -> (e.Scope.pc, e.Scope.privileged))
      (Scope.blocks p)
  in
  Alcotest.(check int) "no duplicate (pc, privilege) records"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* --- scheduling pass unit tests --- *)

let test_schedule_dbu () =
  let mk ops =
    let a = Asm.create () in
    ops a;
    snd (Asm.assemble_insns a)
  in
  let insns =
    mk (fun a ->
        Asm.cmp a 1 0;
        Asm.ldr a 3 2 0;
        Asm.branch_to a ~cond:Cond.NE "x";
        Asm.label a "x")
  in
  let scheduled = D.Translator_rule.schedule ~opt:D.Opt.full insns in
  (* the ldr should have been hoisted above the cmp *)
  (match scheduled.(0).Insn.op with
  | Insn.Ldr _ -> ()
  | _ -> Alcotest.failf "expected ldr first, got %a" Insn.pp scheduled.(0));
  (match scheduled.(1).Insn.op with
  | Insn.Dp { op = Insn.CMP; _ } -> ()
  | _ -> Alcotest.fail "expected cmp second")

let test_schedule_respects_deps () =
  let mk ops =
    let a = Asm.create () in
    ops a;
    snd (Asm.assemble_insns a)
  in
  (* ldr defines r1 which cmp uses: must NOT be reordered *)
  let insns =
    mk (fun a ->
        Asm.cmp a 1 0;
        Asm.ldr a 1 2 0;
        Asm.branch_to a ~cond:Cond.NE "x";
        Asm.label a "x")
  in
  let scheduled = D.Translator_rule.schedule ~opt:D.Opt.full insns in
  match scheduled.(0).Insn.op with
  | Insn.Dp { op = Insn.CMP; _ } -> ()
  | _ -> Alcotest.fail "cmp must stay first (ldr defines its source)"

(* All 14 conditions, against the architectural truth table, through
   the full stack: for random flag-producing comparisons, each
   conditional instruction must execute exactly when Cond.holds says. *)
let prop_condition_truth_table =
  QCheck.Test.make ~count:60 ~name:"all conditions honour the NZCV truth table"
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (x, y) ->
      let program a =
        Asm.mov a 0 x;
        Asm.cmp a 0 y;
        (* r1 = bitmask of taken conditions *)
        Asm.mov a 1 0;
        List.iteri
          (fun i cond -> Asm.orr a ~cond 1 1 (1 lsl i))
          [ Cond.EQ; Cond.NE; Cond.CS; Cond.CC; Cond.MI; Cond.PL; Cond.VS; Cond.VC;
            Cond.HI; Cond.LS; Cond.GE; Cond.LT ]
      in
      let words = assemble program in
      let expected =
        let f =
          {
            Cond.n = (x - y) < 0;
            z = x = y;
            c = x >= y;
            v = false (* small operands can't overflow *);
          }
        in
        List.fold_left
          (fun acc (i, c) -> if Cond.holds c f then acc lor (1 lsl i) else acc)
          0
          (List.mapi (fun i c -> (i, c))
             [ Cond.EQ; Cond.NE; Cond.CS; Cond.CC; Cond.MI; Cond.PL; Cond.VS; Cond.VC;
               Cond.HI; Cond.LS; Cond.GE; Cond.LT ])
      in
      List.for_all
        (fun (name, opt) ->
          let sys, _ = run_mode (D.System.Rules opt) words in
          let got = Cpu.get_reg (D.System.cpu sys) 1 in
          if got <> expected then
            QCheck.Test.fail_reportf "[%s] x=%d y=%d: got %x expected %x" name x y got
              expected
          else true)
        levels)

(* --- randomized differential across all levels --- *)

let prop_random_blocks =
  QCheck.Test.make ~count:40 ~name:"random blocks: rules engine = interpreter (all levels)"
    (Gen.arbitrary_plain_block 16)
    (fun insns ->
      let program a =
        List.iteri (fun i v -> Asm.mov32 a i v)
          [ 3; 0x80000000; 17; 0xFFFFFFFF; 42; 5; 0x7FFFFFFF; 9; 2; 1; 0; 123; 77 ];
        List.iter (fun i -> Asm.emit a i) insns;
        Asm.mov a 11 0
      in
      let words = assemble program in
      let ref_m, outcome, _ = run_ref words in
      (match outcome with
      | T.Ref_machine.Halted _ -> ()
      | _ -> QCheck.Test.fail_report "ref did not halt");
      let ref_snap = Cpu.to_snapshot ref_m.T.Ref_machine.cpu in
      List.for_all
        (fun (name, opt) ->
          let sys, res = run_mode (D.System.Rules opt) words in
          (match res.T.Engine.reason with
          | `Halted _ -> ()
          | `Insn_limit | `Livelock _ | `Deadline -> QCheck.Test.fail_reportf "[%s] insn limit" name);
          match state_mismatch ref_snap (snapshot_of_sys sys) with
          | None -> true
          | Some msg -> QCheck.Test.fail_reportf "[%s]:@\n%s" name msg)
        levels)

let prop_random_mem_blocks =
  QCheck.Test.make ~count:40
    ~name:"random memory blocks: rules engine = interpreter (all levels)"
    (Gen.arbitrary_mem_block 16)
    (fun insns ->
      let program a =
        List.iteri (fun i v -> if i <> Gen.mem_base_reg then Asm.mov32 a i v)
          [ 3; 0x80000000; 17; 0xFFFFFFFF; 42; 5; 0; 9; 2 ];
        (* anchor the scratch window well inside RAM, away from code *)
        Asm.mov32 a Gen.mem_base_reg 0x20000;
        (* seed it so loads see non-trivial data *)
        Asm.str a 0 Gen.mem_base_reg 0;
        Asm.str a 1 Gen.mem_base_reg 4;
        Asm.str a 3 Gen.mem_base_reg 8;
        List.iter (fun i -> Asm.emit a i) insns;
        Asm.mov a 11 0
      in
      let words = assemble program in
      let ref_m, outcome, _ = run_ref words in
      (match outcome with
      | T.Ref_machine.Halted _ -> ()
      | _ -> QCheck.Test.fail_report "ref did not halt");
      let ref_snap = Cpu.to_snapshot ref_m.T.Ref_machine.cpu in
      List.for_all
        (fun (name, opt) ->
          let sys, res = run_mode (D.System.Rules opt) words in
          (match res.T.Engine.reason with
          | `Halted _ -> ()
          | `Insn_limit | `Livelock _ | `Deadline -> QCheck.Test.fail_reportf "[%s] insn limit" name);
          (* memory must agree too, not just registers *)
          let got_snap = snapshot_of_sys sys in
          (match state_mismatch ref_snap got_snap with
          | None -> ()
          | Some msg -> ignore (QCheck.Test.fail_reportf "[%s]:@\n%s" name msg));
          let peek bus addr =
            try Bus.read32 bus addr with Bus.Bus_error -> -1
          in
          let ref_bus = ref_m.T.Ref_machine.bus in
          let got_bus = sys.D.System.rt.T.Runtime.bus in
          let rec scan addr =
            if addr >= 0x20800 then true
            else if peek ref_bus addr <> peek got_bus addr then
              QCheck.Test.fail_reportf "[%s] mem mismatch at %#x: ref %#x got %#x" name
                addr (peek ref_bus addr) (peek got_bus addr)
            else scan (addr + 4)
          in
          scan 0x1F800)
        levels)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "dbt.functional",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "conditionals" `Quick test_conditionals;
        Alcotest.test_case "consecutive conditionals (Fig 9)" `Quick
          test_consecutive_conditionals;
        Alcotest.test_case "loop" `Quick test_loop;
        Alcotest.test_case "memory (Fig 10)" `Quick test_memory;
        Alcotest.test_case "halfword memory" `Quick test_halfword_memory;
        Alcotest.test_case "clz falls back with coordination" `Quick test_clz_fallback;
        Alcotest.test_case "signed loads" `Quick test_signed_load_memory;
        Alcotest.test_case "mem with live flags (Fig 12)" `Quick test_mem_with_live_flags;
        Alcotest.test_case "unpinned registers fall back" `Quick test_unpinned_registers;
        Alcotest.test_case "calls with stack" `Quick test_calls;
        Alcotest.test_case "system insns" `Quick test_system_insns;
        Alcotest.test_case "svc keeps flags across context switch" `Quick
          test_svc_roundtrip;
        Alcotest.test_case "rsb/bic/shifted operands" `Quick test_rsb_bic_shift;
        Alcotest.test_case "zero-amount shifts set flags" `Quick
          test_zero_amount_shift_flags;
      ] );
    ("dbt.property.mem", [ q prop_random_mem_blocks ]);
    ( "dbt.shape",
      [
        Alcotest.test_case "full opt beats base and qemu" `Quick test_full_opt_beats_base;
        Alcotest.test_case "sync cost monotone over levels" `Quick
          test_sync_cost_decreases_with_levels;
        Alcotest.test_case "rule coverage counted" `Quick test_rule_coverage_counted;
        Alcotest.test_case "system-insn classification" `Quick
          test_sys_insn_classification;
        Alcotest.test_case "tiny code cache stays correct" `Quick test_tiny_code_cache;
        Alcotest.test_case "profile attribution" `Quick test_profile_attribution;
        Alcotest.test_case "profile hot ranking" `Quick test_profile_hot_ranking;
        Alcotest.test_case "profile aggregates across flushes" `Quick
          test_profile_across_flushes;
      ] );
    ( "dbt.scheduling",
      [
        Alcotest.test_case "define-before-use hoists ldr" `Quick test_schedule_dbu;
        Alcotest.test_case "scheduling respects dependences" `Quick
          test_schedule_respects_deps;
      ] );
    ("dbt.differential", [ q prop_random_blocks; q prop_condition_truth_table ]);
  ]
