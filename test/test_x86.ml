module X = Repro_x86.Insn
module Prog = Repro_x86.Prog
module Exec = Repro_x86.Exec
module Stats = Repro_x86.Stats
module Sym_x86 = Repro_symexec.Sym_x86
module Term = Repro_symexec.Term

(* Direct tests of the host model: flag semantics, memory segments,
   control flow, helper poisoning and the measurement counters. *)

let run ?(setup = fun _ -> ()) insns =
  let ctx = Exec.create () in
  setup ctx;
  let b = Prog.builder () in
  List.iter (fun i -> Prog.emit b i) insns;
  Prog.emit b (X.Exit { slot = 0 });
  let prog = Prog.finalize b in
  match Exec.run ctx prog ~fuel:10_000 with
  | Exec.Exited 0 -> ctx
  | _ -> Alcotest.fail "program did not exit normally"

let mov r v = X.Mov { width = X.W32; dst = X.Reg r; src = X.Imm v }

let test_add_flags () =
  let ctx =
    run [ mov X.rax 0xFFFFFFFF; X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm 1 } ]
  in
  Alcotest.(check int) "wrapped" 0 ctx.Exec.regs.(X.rax);
  Alcotest.(check bool) "cf" true ctx.Exec.cf;
  Alcotest.(check bool) "zf" true ctx.Exec.zf;
  Alcotest.(check bool) "of" false ctx.Exec.o_f

let test_sub_borrow () =
  let ctx = run [ mov X.rax 3; X.Alu { op = X.Sub; dst = X.Reg X.rax; src = X.Imm 5 } ] in
  Alcotest.(check int) "result" 0xFFFFFFFE ctx.Exec.regs.(X.rax);
  Alcotest.(check bool) "cf = borrow" true ctx.Exec.cf;
  Alcotest.(check bool) "sf" true ctx.Exec.sf

let test_signed_overflow () =
  let ctx =
    run [ mov X.rax 0x7FFFFFFF; X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm 1 } ]
  in
  Alcotest.(check bool) "of" true ctx.Exec.o_f;
  Alcotest.(check bool) "cf" false ctx.Exec.cf

let test_adc_sbb () =
  let ctx =
    run
      [
        mov X.rax 0xFFFFFFFF;
        X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm 1 };  (* cf := 1 *)
        mov X.rbx 10;
        X.Alu { op = X.Adc; dst = X.Reg X.rbx; src = X.Imm 0 };  (* 10 + 0 + 1 *)
      ]
  in
  Alcotest.(check int) "adc" 11 ctx.Exec.regs.(X.rbx)

let test_lea_preserves_flags () =
  let ctx =
    run
      [
        mov X.rax 1;
        X.Alu { op = X.Cmp; dst = X.Reg X.rax; src = X.Imm 1 };  (* zf := 1 *)
        mov X.rbx 5;
        mov X.rcx 7;
        X.Lea
          { dst = X.rdx;
            addr = { X.seg = X.Ram; base = Some X.rbx; index = Some X.rcx; scale = 1; disp = 0 } };
      ]
  in
  Alcotest.(check int) "lea sum" 12 ctx.Exec.regs.(X.rdx);
  Alcotest.(check bool) "zf preserved" true ctx.Exec.zf

let test_savef_loadf_roundtrip () =
  let ctx =
    run
      [
        mov X.rax 0;
        X.Alu { op = X.Cmp; dst = X.Reg X.rax; src = X.Imm 1 };  (* sf, cf set *)
        X.Savef X.rbx;
        mov X.rax 1;
        X.Alu { op = X.Test; dst = X.Reg X.rax; src = X.Reg X.rax };  (* clobber *)
        X.Loadf X.rbx;
      ]
  in
  Alcotest.(check bool) "cf restored" true ctx.Exec.cf;
  Alcotest.(check bool) "sf restored" true ctx.Exec.sf;
  Alcotest.(check bool) "zf restored" false ctx.Exec.zf

let test_env_segment () =
  let ctx =
    run
      [
        mov X.rax 0xABCD;
        X.Mov { width = X.W32; dst = X.Mem (X.env_slot 5); src = X.Reg X.rax };
        X.Mov { width = X.W32; dst = X.Reg X.rbx; src = X.Mem (X.env_slot 5) };
      ]
  in
  Alcotest.(check int) "env roundtrip" 0xABCD ctx.Exec.regs.(X.rbx);
  Alcotest.(check int) "env slot" 0xABCD ctx.Exec.env.(5)

let test_ram_segment_byte () =
  let ctx =
    run
      [
        mov X.rax 0x11223344;
        mov X.rbx 0x100;
        X.Mov
          { width = X.W32;
            dst = X.Mem { X.seg = X.Ram; base = Some X.rbx; index = None; scale = 1; disp = 0 };
            src = X.Reg X.rax };
        X.Movzx8
          { dst = X.rcx;
            src = X.Mem { X.seg = X.Ram; base = Some X.rbx; index = None; scale = 1; disp = 1 } };
      ]
  in
  Alcotest.(check int) "little-endian byte" 0x33 ctx.Exec.regs.(X.rcx)

let test_helper_poisons_registers () =
  let witnessed = ref 0 in
  let setup (ctx : Exec.t) =
    ctx.Exec.helper <-
      (fun c _id ->
        witnessed := c.Exec.regs.(X.rdx);
        77)
  in
  let ctx =
    run ~setup
      [ mov X.rdx 123; mov X.rbx 0x5555; X.Call_helper { id = 0 } ]
  in
  Alcotest.(check int) "helper saw its argument" 123 !witnessed;
  Alcotest.(check int) "return value in rax" 77 ctx.Exec.regs.(X.rax);
  Alcotest.(check bool) "rbx poisoned" true (ctx.Exec.regs.(X.rbx) <> 0x5555)

let test_counters () =
  let ctx =
    run
      [
        X.Count (X.Cnt_guest_insn 0);
        X.Count (X.Cnt_guest_insn 0);
        X.Count X.Cnt_sync_op;
        mov X.rax 1;
      ]
  in
  Alcotest.(check int) "guest counter" 2 ctx.Exec.stats.Repro_x86.Stats.guest_insns;
  Alcotest.(check int) "sync counter" 1 ctx.Exec.stats.Repro_x86.Stats.sync_ops;
  (* pseudo-ops are free; only mov and exit retire *)
  Alcotest.(check int) "host insns" 2 ctx.Exec.stats.Repro_x86.Stats.host_insns

let test_fuel_guard () =
  let ctx = Exec.create () in
  let b = Prog.builder () in
  let l = Prog.fresh_label b in
  Prog.emit b (X.Label l);
  Prog.emit b (X.Jmp l);
  let prog = Prog.finalize b in
  match Exec.run ctx prog ~fuel:100 with
  | exception Exec.Fuel_exhausted { spent } ->
    (* the 101st jump is charged and counted, then the guard fires
       before it executes *)
    Alcotest.(check int) "spent = fuel + 1" 101 spent;
    Alcotest.(check int) "host insns = fuel + 1" 101 ctx.Exec.stats.Stats.host_insns
  | _ -> Alcotest.fail "runaway loop must exhaust fuel"

let program insns =
  let b = Prog.builder () in
  List.iter (fun i -> Prog.emit b i) insns;
  Prog.finalize b

let test_untaken_undefined_label () =
  let ctx = Exec.create () in
  let prog =
    program
      [
        X.Alu { op = X.Cmp; dst = X.Reg X.rax; src = X.Reg X.rax };  (* zf := 1 *)
        X.Jcc { cc = X.NE; target = 99 };  (* label 99 is never placed *)
        X.Exit { slot = 1 };
      ]
  in
  match Exec.run ctx prog ~fuel:100 with
  | Exec.Exited 1 ->
    Alcotest.(check int) "three insns charged" 3 ctx.Exec.stats.Stats.host_insns
  | _ -> Alcotest.fail "an untaken jump to an undefined label must not fail"

let test_taken_undefined_label () =
  let ctx = Exec.create () in
  let prog = program [ X.Jmp 7; X.Exit { slot = 0 } ] in
  match Exec.run ctx prog ~fuel:100 with
  | exception Failure _ ->
    Alcotest.(check int) "the jump was charged" 1 ctx.Exec.stats.Stats.host_insns
  | _ -> Alcotest.fail "a taken jump to an undefined label must fail"

let test_fall_off_end () =
  let ctx = Exec.create () in
  let l = 0 in
  let prog = program [ mov X.rax 1; X.Jmp l; X.Label l ] in
  match Exec.run ctx prog ~fuel:100 with
  | exception Failure _ ->
    Alcotest.(check int) "both insns charged" 2 ctx.Exec.stats.Stats.host_insns
  | _ -> Alcotest.fail "running past the last instruction must fail"

let test_helper_stop_mid_tb () =
  let ctx = Exec.create () in
  ctx.Exec.helper <- (fun _ _ -> raise (Exec.Helper_stop { code = 5; arg = 6 }));
  let b = Prog.builder () in
  Prog.emit b ~tag:X.Tag_sync (mov X.rax 1);
  Prog.emit b (X.Count (X.Cnt_guest_insn 0));
  Prog.emit b ~tag:X.Tag_glue (X.Call_helper { id = 3 });
  Prog.emit b (X.Count (X.Cnt_guest_insn 0));
  Prog.emit b (mov X.rbx 2);
  Prog.emit b (X.Exit { slot = 0 });
  match Exec.run ctx (Prog.finalize b) ~fuel:100 with
  | Exec.Stopped { code = 5; arg = 6 } ->
    let st = ctx.Exec.stats in
    Alcotest.(check int) "charged through the call" 2 st.Stats.host_insns;
    Alcotest.(check int) "sync tag" 1 (Stats.tag_count st X.Tag_sync);
    Alcotest.(check int) "glue tag" 1 (Stats.tag_count st X.Tag_glue);
    Alcotest.(check int) "helper call counted" 1 st.Stats.helper_calls;
    Alcotest.(check int) "one guest insn retired" 1 st.Stats.guest_insns;
    Alcotest.(check int) "nothing after the call ran" 0 ctx.Exec.regs.(X.rbx)
  | _ -> Alcotest.fail "a helper stop must end the TB as Stopped"

(* Env/Tlb sub-word accesses pick the byte lane [addr land 3] of their
   32-bit slot; a halfword may not cross into the next slot. *)
let test_subword_lanes () =
  let seg_mem seg disp = X.Mem { X.seg; base = None; index = None; scale = 1; disp } in
  List.iter
    (fun (seg, name, slots) ->
      let ctx =
        run
          ~setup:(fun ctx -> (slots ctx).(1) <- 0x44332211)
          [
            X.Movzx8 { dst = X.rax; src = seg_mem seg 5 };
            X.Movzx16 { dst = X.rbx; src = seg_mem seg 6 };
            X.Movsx8 { dst = X.rcx; src = seg_mem seg 7 };
            mov X.rdx 0xAB;
            X.Mov { width = X.W8; dst = seg_mem seg 6; src = X.Reg X.rdx };
            mov X.rdx 0xCDEF;
            X.Mov { width = X.W16; dst = seg_mem seg 9; src = X.Reg X.rdx };
          ]
      in
      Alcotest.(check int) (name ^ " byte lane 1") 0x22 ctx.Exec.regs.(X.rax);
      Alcotest.(check int) (name ^ " halfword lanes 2-3") 0x4433 ctx.Exec.regs.(X.rbx);
      Alcotest.(check int) (name ^ " signed byte lane 3") 0x44 ctx.Exec.regs.(X.rcx);
      Alcotest.(check int) (name ^ " byte write lane 2") 0x44AB2211 (slots ctx).(1);
      Alcotest.(check int) (name ^ " halfword write lanes 1-2") 0x00CDEF00 (slots ctx).(2);
      match run [ X.Movzx16 { dst = X.rax; src = seg_mem seg 7 } ] with
      | exception Assert_failure _ -> ()
      | _ -> Alcotest.fail (name ^ ": a halfword crossing a slot must fail"))
    [ (X.Env, "env", fun c -> c.Exec.env); (X.Tlb, "tlb", fun c -> c.Exec.tlb) ]

(* A restored Stats continues exactly where the original left off. *)
let test_stats_restore_then_retire () =
  let step st (attr, cost) =
    Stats.retire st attr;
    Stats.charge_tag st X.Tag_compute cost
  in
  let first = [ (3, 2); (8, 5); (3, 1); (200, 7) ] in
  (* enough new attribution words to grow the restored table *)
  let second =
    [ (3, 4); (9, 1); (200, 2); (77, 3); (8, 6) ]
    @ List.init 100 (fun i -> ((i * 7919) + 1000, i mod 4))
  in
  let whole = Stats.create () in
  List.iter (step whole) (first @ second);
  let part = Stats.create () in
  List.iter (step part) first;
  let restored = Stats.create () in
  Stats.load_array restored (Stats.to_array part);
  List.iter (step restored) second;
  Alcotest.(check (array int)) "restored + retired = uninterrupted"
    (Stats.to_array whole) (Stats.to_array restored);
  Alcotest.(check (list (triple int int int))) "same coverage rows"
    (Stats.cov_entries whole) (Stats.cov_entries restored);
  Alcotest.(check int) "rows partition the retirements" restored.Stats.guest_insns
    (Stats.cov_retired restored);
  Alcotest.(check int) "rows + open window partition the cost" restored.Stats.host_insns
    (Stats.cov_attributed restored + Stats.cov_residual restored)

(* Retiring under known attribution words allocates nothing (the
   two [Gc.minor_words] calls box one float each). *)
let test_retire_does_not_allocate () =
  let st = Stats.create () in
  let attrs = Array.init 40 (fun i -> (i * 7919) + 3) in
  Array.iter (Stats.retire st) attrs;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Stats.retire st attrs.(i mod 40);
    Stats.charge_tag st X.Tag_compute 2
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" words) true (words <= 4.)

(* ---- differential: kernel vs symbolic evaluation ---- *)

(* Registers favour a small pool so results feed later instructions;
   words favour the carry/overflow/shift boundaries. *)
let gen_reg = QCheck.Gen.(frequency [ (3, int_bound 3); (1, int_bound 15) ])

let gen_word =
  let open QCheck.Gen in
  frequency
    [
      (1, oneofl [ 0; 1; 2; 31; 32; 0x7FFF_FFFF; 0x8000_0000; 0x8000_0001; 0xFFFF_FFFE; 0xFFFF_FFFF ]);
      (1, map (fun v -> v land 0xFFFF_FFFF) int);
    ]

let gen_cc = QCheck.Gen.oneofl X.[ E; NE; B; AE; S; NS; O; NO; A; BE; GE; L; G; LE ]

let gen_src =
  let open QCheck.Gen in
  oneof
    [
      map (fun r -> X.Reg r) gen_reg;
      map (fun v -> X.Imm v) gen_word;
    ]

(* Straight-line, register-only instructions: the fragment both the
   kernel and the symbolic evaluator define. *)
let gen_insn =
  let open QCheck.Gen in
  let reg = map (fun r -> X.Reg r) gen_reg in
  oneof
    [
      map2 (fun d s -> X.Mov { width = X.W32; dst = X.Reg d; src = s }) gen_reg gen_src;
      map3
        (fun op d s -> X.Alu { op; dst = X.Reg d; src = s })
        (oneofl X.[ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ])
        gen_reg gen_src;
      map (fun o -> X.Neg o) reg;
      map (fun o -> X.Not o) reg;
      map2 (fun d s -> X.Imul { dst = d; src = s }) gen_reg gen_src;
      map3
        (fun op d n -> X.Shift { op; dst = X.Reg d; amount = X.Sh_imm n })
        (oneofl X.[ Shl; Shr; Sar; Ror ])
        gen_reg (int_bound 31);
      map2 (fun cc d -> X.Setcc { cc; dst = d }) gen_cc gen_reg;
      map3 (fun cc d s -> X.Cmovcc { cc; dst = d; src = s }) gen_cc gen_reg gen_src;
      map (fun r -> X.Savef r) gen_reg;
      map (fun r -> X.Loadf r) gen_reg;
    ]

let gen_case =
  let open QCheck.Gen in
  triple
    (list_size (int_range 1 24) gen_insn)
    (array_size (return 16) gen_word)
    (array_size (return 4) bool)

let print_case (insns, regs, flags) =
  Printf.sprintf "%s\nregs=[%s] cf,zf,sf,of=[%s]"
    (String.concat "; " (List.map X.to_string insns))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%#x") regs)))
    (String.concat " " (Array.to_list (Array.map string_of_bool flags)))

let prop_kernel_matches_symbolic =
  QCheck.Test.make ~count:3000 ~name:"kernel = symbolic evaluation on straight-line code"
    (QCheck.make ~print:print_case gen_case)
    (fun (insns, regs, flags) ->
      let ctx =
        run
          ~setup:(fun ctx ->
            Array.blit regs 0 ctx.Exec.regs 0 16;
            ctx.Exec.cf <- flags.(0);
            ctx.Exec.zf <- flags.(1);
            ctx.Exec.sf <- flags.(2);
            ctx.Exec.o_f <- flags.(3))
          insns
      in
      let sym =
        Sym_x86.exec (Sym_x86.initial (fun r -> Term.var (Printf.sprintf "r%d" r))) insns
      in
      let bit b = if b then 1 else 0 in
      let lookup = function
        | "cf" -> bit flags.(0)
        | "zf" -> bit flags.(1)
        | "sf" -> bit flags.(2)
        | "of" -> bit flags.(3)
        | v -> regs.(int_of_string (String.sub v 1 (String.length v - 1)))
      in
      let ev t = Repro_common.Word32.mask (Term.eval lookup t) in
      Array.for_all2 (fun t v -> ev t = v) sym.Sym_x86.regs ctx.Exec.regs
      && ev sym.Sym_x86.cf = bit ctx.Exec.cf
      && ev sym.Sym_x86.zf = bit ctx.Exec.zf
      && ev sym.Sym_x86.sf = bit ctx.Exec.sf
      && ev sym.Sym_x86.o_f = bit ctx.Exec.o_f)

let test_shift_by_cl () =
  let ctx =
    run
      [
        mov X.rax 1;
        mov X.rcx 35;  (* & 31 = 3 *)
        X.Shift { op = X.Shl; dst = X.Reg X.rax; amount = X.Sh_cl };
      ]
  in
  Alcotest.(check int) "cl shift mod 32" 8 ctx.Exec.regs.(X.rax)

(* A program holds no threaded code until it first runs, whether it was
   finalized or read back from its code and tags; compiling at first run
   leaves an undefined label failing only when reached, on every run. *)
let test_compiled_at_first_run () =
  let prog =
    program
      [
        X.Alu { op = X.Cmp; dst = X.Reg X.rax; src = X.Imm 0 };
        X.Jcc { cc = X.NE; target = 99 };  (* label 99 is never placed *)
        X.Exit { slot = 1 };
      ]
  in
  let decoded = Prog.of_code ~code:prog.Prog.code ~tags:prog.Prog.tags in
  Alcotest.(check (pair bool bool)) "finalized and decoded programs hold no kernel"
    (false, false) (Exec.compiled prog, Exec.compiled decoded);
  let run_with rax =
    let ctx = Exec.create () in
    ctx.Exec.regs.(X.rax) <- rax;
    match Exec.run ctx prog ~fuel:100 with
    | Exec.Exited 1 -> `Exited
    | exception Failure _ -> `Failed
    | _ -> Alcotest.fail "unexpected outcome"
  in
  Alcotest.(check bool) "the untaken jump exits" true (run_with 0 = `Exited);
  Alcotest.(check (pair bool bool)) "only the program that ran is compiled" (true, false)
    (Exec.compiled prog, Exec.compiled decoded);
  Alcotest.(check bool) "the taken jump fails when reached" true (run_with 1 = `Failed);
  Alcotest.(check bool) "the untaken jump still exits" true (run_with 0 = `Exited)

(* A loop of [n] ALU ops run [laps] times: long enough to compile that
   two domains starting it together overlap in its compilation. *)
let loop_program ~n ~laps =
  let b = Prog.builder () in
  let top = Prog.fresh_label b in
  Prog.emit b (mov X.rcx laps);
  Prog.emit b (X.Label top);
  for k = 1 to n do
    let r = [| X.rax; X.rbx; X.rdx; X.rsi |].(k land 3) in
    Prog.emit b ~tag:(if k land 1 = 0 then X.Tag_compute else X.Tag_sync)
      (X.Alu { op = (if k mod 3 = 0 then X.Xor else X.Add); dst = X.Reg r; src = X.Imm k })
  done;
  Prog.emit b (X.Alu { op = X.Sub; dst = X.Reg X.rcx; src = X.Imm 1 });
  Prog.emit b (X.Jcc { cc = X.NE; target = top });
  Prog.emit b (X.Exit { slot = 0 });
  Prog.finalize b

(* Machines share thawed programs, so two domains may run one for the
   first time at the same moment. Each compiles it; both end with the
   Stats of a run on one domain. A [Lazy.t] kernel raises
   [Lazy.Undefined] here. *)
let test_two_domains_first_run () =
  let template = loop_program ~n:2_000 ~laps:8 in
  let rounds = 24 in
  let thawed () =
    Array.init rounds (fun _ ->
        Prog.of_code ~code:template.Prog.code ~tags:template.Prog.tags)
  in
  let run_all progs ~arrive =
    Array.map
      (fun prog ->
        let ctx = Exec.create () in
        arrive ();
        match Exec.run ctx prog ~fuel:1_000_000 with
        | Exec.Exited 0 -> Stats.to_array ctx.Exec.stats
        | _ -> failwith "the loop did not exit")
      progs
  in
  let alone = Ok (run_all (thawed ()) ~arrive:ignore) in
  let progs = thawed () in
  let arrived = Atomic.make 0 and broken = Atomic.make false in
  (* both domains start each program's first run together; a domain
     that fails releases the other *)
  let barrier () =
    let mine = Atomic.fetch_and_add arrived 1 in
    let target = (mine / 2 * 2) + 2 in
    while Atomic.get arrived < target && not (Atomic.get broken) do
      Domain.cpu_relax ()
    done
  in
  let spawn () =
    Domain.spawn (fun () ->
        match run_all progs ~arrive:barrier with
        | stats -> Ok stats
        | exception e ->
          Atomic.set broken true;
          Error (Printexc.to_string e))
  in
  let d1 = spawn () and d2 = spawn () in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  List.iter
    (function Error e -> Alcotest.failf "a domain raised %s" e | Ok _ -> ())
    [ s1; s2 ];
  Alcotest.(check bool) "both domains end with the one-domain Stats" true
    (s1 = alone && s2 = alone);
  Alcotest.(check bool) "every program is compiled" true (Array.for_all Exec.compiled progs)

let suite =
  [
    ( "x86.exec",
      [
        Alcotest.test_case "add flags" `Quick test_add_flags;
        Alcotest.test_case "sub borrow convention" `Quick test_sub_borrow;
        Alcotest.test_case "signed overflow" `Quick test_signed_overflow;
        Alcotest.test_case "adc reads carry" `Quick test_adc_sbb;
        Alcotest.test_case "lea preserves flags" `Quick test_lea_preserves_flags;
        Alcotest.test_case "savef/loadf roundtrip" `Quick test_savef_loadf_roundtrip;
        Alcotest.test_case "env segment" `Quick test_env_segment;
        Alcotest.test_case "ram byte access" `Quick test_ram_segment_byte;
        Alcotest.test_case "helper args/poison/return" `Quick test_helper_poisons_registers;
        Alcotest.test_case "measurement counters" `Quick test_counters;
        Alcotest.test_case "fuel guard" `Quick test_fuel_guard;
        Alcotest.test_case "variable shift uses cl mod 32" `Quick test_shift_by_cl;
        Alcotest.test_case "untaken jump to an undefined label" `Quick
          test_untaken_undefined_label;
        Alcotest.test_case "taken jump to an undefined label fails" `Quick
          test_taken_undefined_label;
        Alcotest.test_case "falling off the end fails" `Quick test_fall_off_end;
        Alcotest.test_case "a program compiles at its first run" `Quick
          test_compiled_at_first_run;
        Alcotest.test_case "two domains run one program first together" `Quick
          test_two_domains_first_run;
        Alcotest.test_case "helper stop mid-TB keeps its charges" `Quick
          test_helper_stop_mid_tb;
        Alcotest.test_case "env/tlb sub-word byte lanes" `Quick test_subword_lanes;
        Alcotest.test_case "stats restore then retire" `Quick
          test_stats_restore_then_retire;
        Alcotest.test_case "retire does not allocate" `Quick
          test_retire_does_not_allocate;
        QCheck_alcotest.to_alcotest prop_kernel_matches_symbolic;
      ] );
  ]
