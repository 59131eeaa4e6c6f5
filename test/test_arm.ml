open Repro_common
open Repro_arm

let check_insn = Alcotest.testable Insn.pp Insn.equal

(* --- Encode/decode --- *)

let roundtrip insn =
  match Encode.decode (Encode.encode insn) with
  | Ok insn' -> Alcotest.check check_insn (Insn.to_string insn) insn insn'
  | Error e -> Alcotest.failf "decode failed for %a: %s" Insn.pp insn e

let test_roundtrip_basics () =
  List.iter roundtrip
    [
      Insn.make (Insn.Dp { op = Insn.ADD; s = false; rd = 0; rn = 1; op2 = Insn.Imm { imm8 = 4; rot = 0 } });
      Insn.make ~cond:Cond.EQ
        (Insn.Dp { op = Insn.ADD; s = true; rd = 3; rn = 3; op2 = Insn.Reg_shift_imm { rm = 5; kind = Insn.LSL; amount = 2 } });
      Insn.make (Insn.Dp { op = Insn.CMP; s = false; rd = 0; rn = 2; op2 = Insn.Imm { imm8 = 0; rot = 0 } });
      Insn.make (Insn.Mul { s = true; rd = 1; rn = 2; rm = 3; acc = None });
      Insn.make (Insn.Mul { s = false; rd = 1; rn = 2; rm = 3; acc = Some 4 });
      Insn.make (Insn.Mull { signed = false; s = false; rdlo = 1; rdhi = 2; rn = 3; rm = 4 });
      Insn.make (Insn.Mull { signed = true; s = true; rdlo = 5; rdhi = 6; rn = 7; rm = 8 });
      Insn.make (Insn.Ldr { width = Insn.Word; rd = 0; rn = 1; off = Insn.Imm_off (-8); index = Insn.Pre_indexed });
      Insn.make (Insn.Str { width = Insn.Byte; rd = 0; rn = 13; off = Insn.Imm_off 4; index = Insn.Post_indexed });
      Insn.make (Insn.Ldm { kind = Insn.IA; rn = 13; writeback = true; regs = 0x800F });
      Insn.make (Insn.Stm { kind = Insn.DB; rn = 13; writeback = true; regs = 0x4FF0 });
      Insn.make (Insn.B { link = true; offset = -2 });
      Insn.make (Insn.Bx 14);
      Insn.make (Insn.Movw { rd = 7; imm16 = 0xBEEF });
      Insn.make (Insn.Movt { rd = 7; imm16 = 0xDEAD });
      Insn.make (Insn.Mrs { rd = 0; spsr = true });
      Insn.make (Insn.Msr { spsr = false; write_flags = true; write_control = false; rm = 0 });
      Insn.make (Insn.Svc 42);
      Insn.make (Insn.Cps { disable = true });
      Insn.make (Insn.Cps { disable = false });
      Insn.make (Insn.Mcr { opc1 = 0; rt = 0; crn = 8; crm = 7; opc2 = 0 });
      Insn.make (Insn.Mrc { opc1 = 0; rt = 1; crn = 2; crm = 0; opc2 = 0 });
      Insn.make (Insn.Vmsr { rt = 0 });
      Insn.make (Insn.Vmrs { rt = 15 });
      Insn.make Insn.Nop;
      Insn.make (Insn.Udf 0xDEAD);
    ]

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode/decode roundtrip" Gen.arbitrary_insn
    (fun insn ->
      match Encode.decode (Encode.encode insn) with
      | Ok insn' -> Insn.equal insn insn'
      | Error _ -> false)

(* The depot's guest-code checksum hashes [encode] of every decoded
   instruction: that needs [encode] total on decoder output, and
   injective there, which re-decoding to the same instruction implies. *)
let prop_encode_total_on_decoded =
  QCheck.Test.make ~count:20_000 ~name:"encode is total and faithful on decoded words"
    QCheck.(map (fun w -> w land 0xFFFF_FFFF) int)
    (fun w ->
      match Encode.decode w with
      | Error _ -> true
      | Ok insn -> (
        match Encode.decode (Encode.encode insn) with
        | Ok insn' -> Insn.equal insn insn'
        | Error _ -> false))

(* --- Operand2 evaluation --- *)

let test_operand2 () =
  let regs () = function 1 -> 0x80000001 | 2 -> 4 | _ -> 0 in
  let eval op2 = Insn.operand2_word regs () op2 in
  Alcotest.(check int) "imm ror" 0x10000000 (eval (Insn.Imm { imm8 = 1; rot = 2 }));
  Alcotest.(check int) "lsl 1 drops bit31" 2
    (eval (Insn.Reg_shift_imm { rm = 1; kind = Insn.LSL; amount = 1 }));
  Alcotest.(check int) "lsr 1" 0x40000000
    (eval (Insn.Reg_shift_imm { rm = 1; kind = Insn.LSR; amount = 1 }));
  Alcotest.(check int) "asr 1 keeps sign" 0xC0000000
    (eval (Insn.Reg_shift_imm { rm = 1; kind = Insn.ASR; amount = 1 }));
  Alcotest.(check int) "ror 1" 0xC0000000
    (eval (Insn.Reg_shift_imm { rm = 1; kind = Insn.ROR; amount = 1 }));
  Alcotest.(check int) "reg shift by reg" 0x40
    (eval (Insn.Reg_shift_reg { rm = 2; kind = Insn.LSL; rs = 2 }))

(* --- Interpreter helpers --- *)

let setup_flat program =
  let cpu = Cpu.create () in
  let _buf, mem = Mem.flat ~size:0x10000 in
  let asm = Asm.create () in
  program asm;
  let origin, words = Asm.assemble asm in
  Array.iteri (fun i w -> mem.Mem.store Mem.W32 ~privileged:true (origin + (4 * i)) w) words;
  Cpu.set_pc cpu origin;
  (cpu, mem)

(* Decoding is a pure function of the word, so one cache serves every
   test. *)
let dcache = Decode_cache.create ~bits:10

let run_steps cpu mem n =
  for _ = 1 to n do
    match Interp.step dcache cpu mem ~irq:false with
    | Interp.Stepped | Interp.Took_exception _ -> ()
    | Interp.Decode_error e -> Alcotest.failf "decode error: %s" e
  done

let test_arith_flags () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0xFFFFFFFF;
        Asm.add a ~s:true 1 0 1;
        (* 0xFFFFFFFF + 1 = 0, carry out, no overflow *)
        Asm.nop a)
  in
  run_steps cpu mem 3;
  Alcotest.(check int) "r1" 0 (Cpu.get_reg cpu 1);
  let f = Cpu.get_flags cpu in
  Alcotest.(check bool) "Z" true f.Cond.z;
  Alcotest.(check bool) "C" true f.Cond.c;
  Alcotest.(check bool) "V" false f.Cond.v;
  Alcotest.(check bool) "N" false f.Cond.n

let test_sub_carry_convention () =
  (* ARM: cmp r0, r1 with r0 >= r1 sets C (no borrow). *)
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov a 0 5;
        Asm.mov a 1 3;
        Asm.cmp_r a 0 1)
  in
  run_steps cpu mem 3;
  let f = Cpu.get_flags cpu in
  Alcotest.(check bool) "C set (no borrow)" true f.Cond.c;
  Alcotest.(check bool) "Z clear" false f.Cond.z

let test_overflow () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x7FFFFFFF;
        Asm.add a ~s:true 1 0 1)
  in
  run_steps cpu mem 3;
  let f = Cpu.get_flags cpu in
  Alcotest.(check bool) "V set" true f.Cond.v;
  Alcotest.(check bool) "N set" true f.Cond.n

let test_conditional_execution () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov a 0 1;
        Asm.cmp a 0 1;
        Asm.mov a ~cond:Cond.EQ 1 42;
        Asm.mov a ~cond:Cond.NE 2 99)
  in
  run_steps cpu mem 4;
  Alcotest.(check int) "eq taken" 42 (Cpu.get_reg cpu 1);
  Alcotest.(check int) "ne skipped" 0 (Cpu.get_reg cpu 2)

let test_adc_chain () =
  (* 64-bit add: 0xFFFFFFFF:0x00000001 + 0x00000000:0xFFFFFFFF *)
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x1;
        Asm.mov32 a 1 0xFFFFFFFF;
        Asm.mov32 a 2 0xFFFFFFFF;
        Asm.mov a 3 0;
        Asm.emit a
          (Insn.make
             (Insn.Dp
                { op = Insn.ADD; s = true; rd = 4; rn = 0;
                  op2 = Insn.Reg_shift_imm { rm = 2; kind = Insn.LSL; amount = 0 } }));
        Asm.emit a
          (Insn.make
             (Insn.Dp
                { op = Insn.ADC; s = false; rd = 5; rn = 1;
                  op2 = Insn.Reg_shift_imm { rm = 3; kind = Insn.LSL; amount = 0 } })))
  in
  run_steps cpu mem 8;
  Alcotest.(check int) "low" 0 (Cpu.get_reg cpu 4);
  Alcotest.(check int) "high" 0 (Cpu.get_reg cpu 5)

let test_memory_ops () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x1000;
        Asm.mov32 a 1 0xCAFEBABE;
        Asm.str a 1 0 0;
        Asm.ldr a 2 0 0;
        Asm.str a ~width:Insn.Byte 1 0 8;
        Asm.ldr a ~width:Insn.Byte 3 0 8)
  in
  run_steps cpu mem 8;
  Alcotest.(check int) "word roundtrip" 0xCAFEBABE (Cpu.get_reg cpu 2);
  Alcotest.(check int) "byte roundtrip" 0xBE (Cpu.get_reg cpu 3)

let test_clz () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x00010000;
        Asm.clz a 1 0;
        Asm.mov a 2 0;
        Asm.clz a 3 2;
        Asm.mov32 a 4 0x80000000;
        Asm.clz a 5 4;
        Asm.mov a 6 1;
        Asm.clz a 7 6)
  in
  run_steps cpu mem 12;
  Alcotest.(check int) "clz 0x10000" 15 (Cpu.get_reg cpu 1);
  Alcotest.(check int) "clz 0" 32 (Cpu.get_reg cpu 3);
  Alcotest.(check int) "clz msb" 0 (Cpu.get_reg cpu 5);
  Alcotest.(check int) "clz 1" 31 (Cpu.get_reg cpu 7)

let test_halfword_ops () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x1000;
        Asm.mov32 a 1 0xCAFEBABE;
        (* strh keeps the low half; ldrh zero-extends *)
        Asm.str a ~width:Insn.Half 1 0 0;
        Asm.ldr a ~width:Insn.Half 2 0 0;
        (* the upper half of the word is untouched by strh *)
        Asm.mov32 a 3 0x11223344;
        Asm.str a 3 0 4;
        Asm.str a ~width:Insn.Half 1 0 4;
        Asm.ldr a 4 0 4;
        (* halfword at an odd-but-2-aligned address *)
        Asm.str a ~width:Insn.Half 3 0 6;
        Asm.ldr a ~width:Insn.Half 5 0 6;
        (* writeback forms *)
        Asm.str a ~width:Insn.Half ~index:Insn.Pre_indexed 1 0 2;
        Asm.ldr a ~width:Insn.Half ~index:Insn.Post_indexed 6 0 2)
  in
  run_steps cpu mem 14;
  Alcotest.(check int) "halfword roundtrip" 0xBABE (Cpu.get_reg cpu 2);
  Alcotest.(check int) "upper half preserved" 0x1122BABE (Cpu.get_reg cpu 4);
  Alcotest.(check int) "2-aligned halfword" 0x3344 (Cpu.get_reg cpu 5);
  Alcotest.(check int) "writeback" 0x1004 (Cpu.get_reg cpu 0);
  Alcotest.(check int) "pre-indexed store read back" 0xBABE (Cpu.get_reg cpu 6)

let test_halfword_encode_roundtrip () =
  let i =
    Insn.make
      (Insn.Ldr { width = Insn.Half; rd = 3; rn = 7; off = Insn.Imm_off 0xFE;
                  index = Insn.Pre_indexed })
  in
  (match Encode.decode (Encode.encode i) with
  | Ok i' -> Alcotest.(check bool) "ldrh roundtrip" true (i = i')
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* encoding constraints are enforced *)
  (match
     Encode.encode
       (Insn.make
          (Insn.Str { width = Insn.Half; rd = 0; rn = 1; off = Insn.Imm_off 256;
                      index = Insn.Offset }))
   with
  | _ -> Alcotest.fail "offset 256 must be rejected"
  | exception Invalid_argument _ -> ());
  match
    Encode.encode
      (Insn.make
         (Insn.Ldr
            { width = Insn.Half; rd = 0; rn = 1;
              off = Insn.Reg_off { rm = 2; kind = Insn.LSL; amount = 3; subtract = false };
              index = Insn.Offset }))
  with
  | _ -> Alcotest.fail "shifted register offset must be rejected"
  | exception Invalid_argument _ -> ()

let test_signed_loads () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x1000;
        Asm.mov32 a 1 0xFFFF8A90;
        Asm.str a 1 0 0;
        (* ldrsb of 0x90 -> 0xFFFFFF90; of 0x8A -> 0xFFFFFF8A *)
        Asm.ldrs a 2 0 0;
        Asm.ldrs a 3 0 1;
        (* ldrsh of 0x8A90 -> 0xFFFF8A90 *)
        Asm.ldrs a ~half:true 4 0 0;
        (* positive values stay positive *)
        Asm.mov32 a 1 0x00331234;
        Asm.str a 1 0 4;
        Asm.ldrs a ~half:true 5 0 4;
        Asm.ldrs a 6 0 6;
        (* pre-indexed writeback *)
        Asm.ldrs a ~half:true ~index:Insn.Pre_indexed 7 0 4)
  in
  run_steps cpu mem 14;
  Alcotest.(check int) "ldrsb negative" 0xFFFFFF90 (Cpu.get_reg cpu 2);
  Alcotest.(check int) "ldrsb offset 1" 0xFFFFFF8A (Cpu.get_reg cpu 3);
  Alcotest.(check int) "ldrsh negative" 0xFFFF8A90 (Cpu.get_reg cpu 4);
  Alcotest.(check int) "ldrsh positive" 0x1234 (Cpu.get_reg cpu 5);
  Alcotest.(check int) "ldrsb positive" 0x33 (Cpu.get_reg cpu 6);
  Alcotest.(check int) "writeback" 0x1004 (Cpu.get_reg cpu 0);
  Alcotest.(check int) "pre-indexed value" 0x1234 (Cpu.get_reg cpu 7)

let test_pre_post_index () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x1000;
        Asm.mov32 a 1 0x11;
        Asm.str a ~index:Insn.Pre_indexed 1 0 4;    (* [r0, #4]! => 0x1004, r0 = 0x1004 *)
        Asm.str a ~index:Insn.Post_indexed 1 0 4;   (* [r0], #4 => 0x1004, r0 = 0x1008 *)
        Asm.ldr a 2 0 (-4))
  in
  run_steps cpu mem 7;
  Alcotest.(check int) "writeback" 0x1008 (Cpu.get_reg cpu 0);
  Alcotest.(check int) "post store went to 0x1004" 0x11 (Cpu.get_reg cpu 2)

let test_push_pop () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a Insn.sp 0x8000;
        Asm.mov a 0 1;
        Asm.mov a 1 2;
        Asm.mov a 2 3;
        Asm.push a (Asm.reg_mask [ 0; 1; 2 ]);
        Asm.mov a 0 0;
        Asm.mov a 1 0;
        Asm.mov a 2 0;
        Asm.pop a (Asm.reg_mask [ 0; 1; 2 ]))
  in
  run_steps cpu mem 10;
  Alcotest.(check int) "sp restored" 0x8000 (Cpu.get_reg cpu Insn.sp);
  Alcotest.(check (list int)) "regs restored" [ 1; 2; 3 ]
    [ Cpu.get_reg cpu 0; Cpu.get_reg cpu 1; Cpu.get_reg cpu 2 ]

let test_branch_and_link () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov a 0 0;
        Asm.branch_to a ~link:true "callee";
        Asm.mov a 1 7;
        Asm.udf a 0;
        Asm.label a "callee";
        Asm.mov a 0 9;
        Asm.bx a Insn.lr)
  in
  run_steps cpu mem 5;
  Alcotest.(check int) "callee ran" 9 (Cpu.get_reg cpu 0);
  Alcotest.(check int) "returned" 7 (Cpu.get_reg cpu 1)

let test_svc_exception_entry () =
  let cpu, mem =
    setup_flat (fun a ->
        (* Vector table: reset at 0 jumps to start; svc vector at 8. *)
        Asm.branch_to a "start";
        Asm.udf a 1;
        Asm.branch_to a "svc_handler";
        Asm.udf a 3;
        Asm.udf a 4;
        Asm.udf a 5;
        Asm.udf a 6;
        Asm.label a "start";
        (* Drop to user mode via cpsr write. *)
        Asm.mrs a 0;
        Asm.mov32 a 1 0xFFFFFFE0;
        Asm.and_r a 0 0 1;
        Asm.orr a 0 0 0x10;
        Asm.msr a ~flags:true ~control:true 0;
        Asm.mov a 2 5;
        Asm.svc a 7;
        Asm.mov a 3 11;
        Asm.udf a 9;
        Asm.label a "svc_handler";
        Asm.mov a 4 77;
        (* Return: movs pc, lr restores CPSR from SPSR. *)
        Asm.emit a
          (Insn.make
             (Insn.Dp
                { op = Insn.MOV; s = true; rd = 15; rn = 0;
                  op2 = Insn.Reg_shift_imm { rm = 14; kind = Insn.LSL; amount = 0 } })))
  in
  run_steps cpu mem 13;
  Alcotest.(check int) "handler ran" 77 (Cpu.get_reg cpu 4);
  Alcotest.(check int) "resumed after svc" 11 (Cpu.get_reg cpu 3);
  Alcotest.(check string) "back in user mode" "usr"
    (Format.asprintf "%a" Cpu.pp_mode (Cpu.mode cpu))

let test_irq_entry_and_banking () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.branch_to a "start";
        Asm.udf a 1;
        Asm.udf a 2;
        Asm.udf a 3;
        Asm.udf a 4;
        Asm.udf a 5;
        Asm.branch_to a "irq_handler";
        Asm.label a "start";
        Asm.mov32 a Insn.sp 0x8000;
        Asm.cps a ~disable:false;
        Asm.label a "spin";
        Asm.mov a 0 1;
        Asm.branch_to a "spin";
        Asm.label a "irq_handler";
        Asm.mov a 5 123;
        Asm.emit a
          (Insn.make
             (Insn.Dp
                { op = Insn.SUB; s = true; rd = 15; rn = 14;
                  op2 = Insn.imm_operand_exn 4 })))
  in
  (* Execute setup, then raise IRQ. *)
  run_steps cpu mem 4;
  let sp_before = Cpu.get_reg cpu Insn.sp in
  (match Interp.step dcache cpu mem ~irq:true with
  | Interp.Took_exception Cpu.Irq -> ()
  | _ -> Alcotest.fail "expected IRQ");
  Alcotest.(check string) "irq mode" "irq"
    (Format.asprintf "%a" Cpu.pp_mode (Cpu.mode cpu));
  Alcotest.(check bool) "sp banked" true (Cpu.get_reg cpu Insn.sp <> sp_before || sp_before = 0);
  run_steps cpu mem 3;
  Alcotest.(check int) "handler ran" 123 (Cpu.get_reg cpu 5);
  Alcotest.(check string) "back to svc mode" "svc"
    (Format.asprintf "%a" Cpu.pp_mode (Cpu.mode cpu));
  (* IRQs are masked during the handler and unmasked on return. *)
  Alcotest.(check bool) "irq unmasked after return" false (Cpu.irq_masked cpu)

let test_vmsr_vmrs () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0xF0000013;
        Asm.vmsr a 0;
        Asm.vmrs a 1;
        (* vmrs apsr_nzcv, fpscr: flags from FPSCR[31:28] = 0xF *)
        Asm.vmrs a 15)
  in
  run_steps cpu mem 5;
  Alcotest.(check int) "fpscr readback" 0xF0000013 (Cpu.get_reg cpu 1);
  let f = Cpu.get_flags cpu in
  Alcotest.(check bool) "N" true f.Cond.n;
  Alcotest.(check bool) "Z" true f.Cond.z;
  Alcotest.(check bool) "C" true f.Cond.c;
  Alcotest.(check bool) "V" true f.Cond.v

let test_mcr_mrc_ttbr () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0x4000;
        Asm.mcr a ~crn:2 0;
        Asm.mrc a ~crn:2 1)
  in
  run_steps cpu mem 4;
  Alcotest.(check int) "ttbr readback" 0x4000 (Cpu.get_reg cpu 1);
  Alcotest.(check int) "cpu ttbr" 0x4000 (Cpu.get_ttbr cpu)

let test_udf_takes_undefined () =
  let cpu, mem = setup_flat (fun a -> Asm.udf a 0) in
  (match Interp.step dcache cpu mem ~irq:false with
  | Interp.Took_exception Cpu.Undefined_insn -> ()
  | _ -> Alcotest.fail "expected undefined exception");
  Alcotest.(check int) "at undef vector" 0x4 (Cpu.get_pc cpu)

let test_umull_smull () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a 0 0xFFFFFFFF;
        Asm.mov a 1 2;
        Asm.umull a 2 3 0 1;   (* 0xFFFFFFFF * 2 = 0x1_FFFF_FFFE *)
        Asm.smull a 4 5 0 1)   (* (-1) * 2 = -2 *)
  in
  run_steps cpu mem 5;
  Alcotest.(check int) "umull lo" 0xFFFFFFFE (Cpu.get_reg cpu 2);
  Alcotest.(check int) "umull hi" 1 (Cpu.get_reg cpu 3);
  Alcotest.(check int) "smull lo" 0xFFFFFFFE (Cpu.get_reg cpu 4);
  Alcotest.(check int) "smull hi" 0xFFFFFFFF (Cpu.get_reg cpu 5)

let test_pc_plus_8_view () =
  (* add r0, pc, #0 at address 0 reads PC+8. *)
  let cpu, mem = setup_flat (fun a -> Asm.add a 0 Insn.pc 0) in
  run_steps cpu mem 1;
  Alcotest.(check int) "pc+8" 8 (Cpu.get_reg cpu 0)

let prop_flags_word_roundtrip =
  QCheck.Test.make ~count:200 ~name:"flags pack/unpack"
    QCheck.(quad bool bool bool bool)
    (fun (n, z, c, v) ->
      let f = { Cond.n; z; c; v } in
      Cond.equal_flags f (Cond.flags_of_word (Cond.flags_to_word f)))

let prop_word32_ops =
  QCheck.Test.make ~count:1000 ~name:"word32 masked arithmetic"
    QCheck.(pair int int)
    (fun (a, b) ->
      let a = Word32.mask a and b = Word32.mask b in
      Word32.add a b = (a + b) land 0xFFFFFFFF
      && Word32.sub a b = (a - b) land 0xFFFFFFFF
      && Word32.mask (Word32.mul a b) = Word32.mul a b)

(* --- The interpreter's step: no allocation, word-keyed decode --- *)

(* A loop of data-processing, branch and load/store instructions.
   Once every word is in the decode cache, a step allocates nothing
   (the two [Gc.minor_words] calls box one float each). *)
let test_step_does_not_allocate () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.mov32 a Insn.sp 0x8000;
        Asm.mov32 a 6 0x1000;
        Asm.mov a 0 0;
        Asm.label a "loop";
        Asm.add a 0 0 1;
        Asm.add_r a ~s:true 1 0 0;
        Asm.eor_r a 2 1 0;
        Asm.orr a 3 2 1;
        Asm.lsl_ a 4 3 2;
        Asm.mul a 9 0 1;
        Asm.str a 4 6 0;
        Asm.ldr a 5 6 0;
        Asm.str a ~width:Insn.Byte 5 6 4;
        Asm.ldr a ~width:Insn.Byte 7 6 4;
        Asm.str a ~width:Insn.Half 5 6 8;
        Asm.ldrs a ~half:true 8 6 8;
        Asm.ldr a ~index:Insn.Post_indexed 10 6 4;
        Asm.sub a 6 6 4;
        Asm.push a (Asm.reg_mask [ 0; 1; 2; 14 ]);
        Asm.pop a (Asm.reg_mask [ 0; 1; 2; 14 ]);
        Asm.branch_to a ~link:true "leaf";
        Asm.cmp a 0 200;
        Asm.mov a ~cond:Cond.GE 0 0;
        Asm.branch_to a "loop";
        Asm.label a "leaf";
        Asm.add a 11 11 1;
        Asm.bx a Insn.lr)
  in
  run_steps cpu mem 2_000;
  let before = Gc.minor_words () in
  for _ = 1 to 20_000 do
    match Interp.step dcache cpu mem ~irq:false with
    | Interp.Stepped -> ()
    | Interp.Took_exception _ | Interp.Decode_error _ -> Alcotest.fail "unexpected exit"
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" words) true (words <= 4.);
  Alcotest.(check bool) "the leaf ran" true (Cpu.get_reg cpu 11 > 500)

(* The cache is keyed by the instruction word, not its address: a word
   rewritten in place runs as the new instruction. *)
let test_rewritten_word_runs () =
  let cpu, mem =
    setup_flat (fun a ->
        Asm.label a "patch";
        Asm.mov a 0 1)
  in
  let origin = Cpu.get_pc cpu in
  run_steps cpu mem 1;
  Alcotest.(check int) "old word" 1 (Cpu.get_reg cpu 0);
  let a = Asm.create ~origin () in
  Asm.mov a 0 2;
  mem.Mem.store Mem.W32 ~privileged:true origin (snd (Asm.assemble a)).(0);
  Cpu.set_pc cpu origin;
  run_steps cpu mem 1;
  Alcotest.(check int) "new word" 2 (Cpu.get_reg cpu 0)

(* Two words that map to one cache slot evict each other on every step
   when run alternately; both still execute. *)
let test_slot_sharing_words () =
  (* [add rd, rd, #imm] over every immediate encoding, for rd = r1 and
     rd = r2: some r2 word lands in the slot of some r1 word. *)
  let add rd i =
    let op2 = Insn.Imm { imm8 = i land 0xFF; rot = i lsr 8 } in
    Encode.encode (Insn.make (Insn.Dp { op = Insn.ADD; s = false; rd; rn = rd; op2 }))
  in
  let r1_slots = Hashtbl.create 4096 in
  for i = 0 to 0xFFF do
    Hashtbl.replace r1_slots (Decode_cache.slot dcache (add 1 i)) i
  done;
  let rec find j =
    if j > 0xFFF then Alcotest.fail "no two adds share a slot"
    else
      match Hashtbl.find_opt r1_slots (Decode_cache.slot dcache (add 2 j)) with
      | Some i -> (i, j)
      | None -> find (j + 1)
  in
  let i, j = find 0 in
  let a = add 1 i and b = add 2 j in
  Alcotest.(check int) "same slot" (Decode_cache.slot dcache a) (Decode_cache.slot dcache b);
  let cpu, mem =
    setup_flat (fun asm ->
        for _ = 1 to 5 do
          Asm.word asm a;
          Asm.word asm b
        done)
  in
  run_steps cpu mem 10;
  let value i = Word32.rotate_right (i land 0xFF) (2 * (i lsr 8)) in
  Alcotest.(check int) "r1 word ran five times" (Word32.mask (5 * value i)) (Cpu.get_reg cpu 1);
  Alcotest.(check int) "r2 word ran five times" (Word32.mask (5 * value j)) (Cpu.get_reg cpu 2)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "arm.encode",
      [
        Alcotest.test_case "roundtrip basics" `Quick test_roundtrip_basics;
        q prop_roundtrip;
        q prop_encode_total_on_decoded;
      ] );
    ( "arm.operand2",
      [ Alcotest.test_case "shifter values" `Quick test_operand2 ] );
    ( "arm.interp",
      [
        Alcotest.test_case "add flags" `Quick test_arith_flags;
        Alcotest.test_case "sub carry convention" `Quick test_sub_carry_convention;
        Alcotest.test_case "signed overflow" `Quick test_overflow;
        Alcotest.test_case "conditional execution" `Quick test_conditional_execution;
        Alcotest.test_case "adc 64-bit chain" `Quick test_adc_chain;
        Alcotest.test_case "ldr/str word and byte" `Quick test_memory_ops;
        Alcotest.test_case "clz" `Quick test_clz;
        Alcotest.test_case "ldrh/strh halfword" `Quick test_halfword_ops;
        Alcotest.test_case "halfword encode constraints" `Quick
          test_halfword_encode_roundtrip;
        Alcotest.test_case "ldrsb/ldrsh signed loads" `Quick test_signed_loads;
        Alcotest.test_case "pre/post indexing" `Quick test_pre_post_index;
        Alcotest.test_case "push/pop" `Quick test_push_pop;
        Alcotest.test_case "bl/bx" `Quick test_branch_and_link;
        Alcotest.test_case "svc exception entry/return" `Quick test_svc_exception_entry;
        Alcotest.test_case "irq entry and register banking" `Quick test_irq_entry_and_banking;
        Alcotest.test_case "vmsr/vmrs" `Quick test_vmsr_vmrs;
        Alcotest.test_case "mcr/mrc ttbr" `Quick test_mcr_mrc_ttbr;
        Alcotest.test_case "udf raises undefined" `Quick test_udf_takes_undefined;
        Alcotest.test_case "umull/smull" `Quick test_umull_smull;
        Alcotest.test_case "pc reads as pc+8" `Quick test_pc_plus_8_view;
        Alcotest.test_case "step does not allocate" `Quick test_step_does_not_allocate;
        Alcotest.test_case "rewritten word runs" `Quick test_rewritten_word_runs;
        Alcotest.test_case "slot-sharing words both run" `Quick test_slot_sharing_words;
      ] );
    ( "arm.properties",
      [ q prop_flags_word_roundtrip; q prop_word32_ops ] );
  ]
