open Repro_common
module A = Repro_arm.Insn
module Cond = Repro_arm.Cond
module Covscope = Repro_covscope

type ctx = {
  mutable rev_ops : Ir.t list;
  mutable n_temp : int;
  mutable n_label : int;
  alloc_direct : Word32.t -> int;
  alloc_indirect : unit -> int;
}

let create ~alloc_direct ~alloc_indirect () =
  { rev_ops = []; n_temp = 0; n_label = 0; alloc_direct; alloc_indirect }

let ops ctx = List.rev ctx.rev_ops
let emit ctx op = ctx.rev_ops <- op :: ctx.rev_ops

let temp ctx =
  let t = ctx.n_temp in
  ctx.n_temp <- t + 1;
  (* The backend maps temps directly onto a pool of host registers; a
     block that would overflow the pool is retried shorter. *)
  if t >= 11 then raise Tb.Tb_too_complex;
  t

let label ctx =
  let l = ctx.n_label in
  ctx.n_label <- l + 1;
  l

let reset_temps ctx = ctx.n_temp <- 0

(* Load a guest register into a temp (PC reads as insn address + 8). *)
let ld_reg ctx ~pc r =
  let t = temp ctx in
  if r = 15 then emit ctx (Ir.Movi (t, Word32.add pc 8)) else emit ctx (Ir.Ld_env (t, r));
  t

let st_reg ctx r t = emit ctx (Ir.St_env (r, t))

(* Branch to [skip] when [cond] does NOT hold, reading the parsed flag
   slots from env. *)
let emit_cond_guard ctx cond ~skip =
  let ld_flag f =
    let t = temp ctx in
    emit ctx (Ir.Ld_env (t, Envspec.flag_slot f));
    t
  in
  let br_if_zero t = emit ctx (Ir.Brcondi (Ir.Eq, t, 0, skip)) in
  let br_if_nonzero t = emit ctx (Ir.Brcondi (Ir.Ne, t, 0, skip)) in
  match cond with
  | Cond.AL -> ()
  | Cond.EQ -> br_if_zero (ld_flag `Z)
  | Cond.NE -> br_if_nonzero (ld_flag `Z)
  | Cond.CS -> br_if_zero (ld_flag `C)
  | Cond.CC -> br_if_nonzero (ld_flag `C)
  | Cond.MI -> br_if_zero (ld_flag `N)
  | Cond.PL -> br_if_nonzero (ld_flag `N)
  | Cond.VS -> br_if_zero (ld_flag `V)
  | Cond.VC -> br_if_nonzero (ld_flag `V)
  | Cond.HI ->
    (* c ∧ ¬z : fail when c=0 or z=1 *)
    br_if_zero (ld_flag `C);
    br_if_nonzero (ld_flag `Z)
  | Cond.LS ->
    (* ¬c ∨ z : fail when c=1 ∧ z=0, i.e. (c & ~z) ≠ 0 *)
    let c = ld_flag `C in
    let z = ld_flag `Z in
    let nz = temp ctx in
    emit ctx (Ir.Binopi (Ir.Xor, nz, z, 1));
    let both = temp ctx in
    emit ctx (Ir.Binop (Ir.And, both, c, nz));
    br_if_nonzero both
  | Cond.GE ->
    let n = ld_flag `N in
    let v = ld_flag `V in
    let x = temp ctx in
    emit ctx (Ir.Binop (Ir.Xor, x, n, v));
    br_if_nonzero x
  | Cond.LT ->
    let n = ld_flag `N in
    let v = ld_flag `V in
    let x = temp ctx in
    emit ctx (Ir.Binop (Ir.Xor, x, n, v));
    br_if_zero x
  | Cond.GT ->
    br_if_nonzero (ld_flag `Z);
    let n = ld_flag `N in
    let v = ld_flag `V in
    let x = temp ctx in
    emit ctx (Ir.Binop (Ir.Xor, x, n, v));
    br_if_nonzero x
  | Cond.LE ->
    (* z ∨ n≠v : fail when z=0 ∧ n=v *)
    let z = ld_flag `Z in
    let n = ld_flag `N in
    let v = ld_flag `V in
    let x = temp ctx in
    emit ctx (Ir.Binop (Ir.Xor, x, n, v));
    let u = temp ctx in
    emit ctx (Ir.Binop (Ir.Or, u, z, x));
    br_if_zero u

(* Evaluate operand2 into a temp. Shifter carry-out is not modelled
   (logical S-ops set C:=0; see DESIGN.md). *)
let eval_op2 ctx ~pc op2 =
  match op2 with
  | A.Imm { imm8; rot } ->
    let t = temp ctx in
    emit ctx (Ir.Movi (t, Word32.rotate_right imm8 (2 * rot)));
    t
  | A.Reg_shift_imm { rm; kind; amount } ->
    let t = ld_reg ctx ~pc rm in
    if amount <> 0 then begin
      let op =
        match kind with
        | A.LSL -> Ir.Shl
        | A.LSR -> Ir.Shr
        | A.ASR -> Ir.Sar
        | A.ROR -> Ir.Ror
      in
      emit ctx (Ir.Binopi (op, t, t, amount))
    end;
    t
  | A.Reg_shift_reg { rm; kind; rs } ->
    let t = ld_reg ctx ~pc rm in
    let amt = ld_reg ctx ~pc rs in
    emit ctx (Ir.Binopi (Ir.And, amt, amt, 31));
    let op =
      match kind with
      | A.LSL -> Ir.Shl
      | A.LSR -> Ir.Shr
      | A.ASR -> Ir.Sar
      | A.ROR -> Ir.Ror
    in
    emit ctx (Ir.Binop (op, t, t, amt));
    t

let store_nz ctx r =
  (* One scratch temp reused for both flags to stay inside the
     backend's register pool. *)
  let t = temp ctx in
  emit ctx (Ir.Binopi (Ir.Shr, t, r, 31));
  emit ctx (Ir.St_env (Envspec.cc_n, t));
  emit ctx (Ir.Setcondi (Ir.Eq, t, r, 0));
  emit ctx (Ir.St_env (Envspec.cc_z, t))

let clear_cv ctx =
  emit ctx (Ir.Sti_env (Envspec.cc_c, 0));
  emit ctx (Ir.Sti_env (Envspec.cc_v, 0))

let mark_parsed ctx = emit ctx (Ir.Sti_env (Envspec.ccr_tag, 0))

let store_v_add ctx a b r =
  (* v = (~(a^b) & (a^r)) >> 31 *)
  let t1 = temp ctx in
  emit ctx (Ir.Binop (Ir.Xor, t1, a, b));
  emit ctx (Ir.Not (t1, t1));
  let t2 = temp ctx in
  emit ctx (Ir.Binop (Ir.Xor, t2, a, r));
  emit ctx (Ir.Binop (Ir.And, t1, t1, t2));
  emit ctx (Ir.Binopi (Ir.Shr, t1, t1, 31));
  emit ctx (Ir.St_env (Envspec.cc_v, t1))

let store_v_sub ctx a b r =
  (* v = ((a^b) & (a^r)) >> 31 *)
  let t1 = temp ctx in
  emit ctx (Ir.Binop (Ir.Xor, t1, a, b));
  let t2 = temp ctx in
  emit ctx (Ir.Binop (Ir.Xor, t2, a, r));
  emit ctx (Ir.Binop (Ir.And, t1, t1, t2));
  emit ctx (Ir.Binopi (Ir.Shr, t1, t1, 31));
  emit ctx (Ir.St_env (Envspec.cc_v, t1))

(* Arithmetic flag generators. [a]/[b] are the operand temps and [r]
   the result; all still live. *)
let add_flags ctx a b r ~carry_in =
  store_nz ctx r;
  (match carry_in with
  | None ->
    let tc = temp ctx in
    emit ctx (Ir.Setcond (Ir.Ltu, tc, r, a));
    emit ctx (Ir.St_env (Envspec.cc_c, tc))
  | Some cin ->
    (* carry = (a+b <u a) | (r <u cin) *)
    let s = temp ctx in
    emit ctx (Ir.Binop (Ir.Add, s, a, b));
    let c1 = temp ctx in
    emit ctx (Ir.Setcond (Ir.Ltu, c1, s, a));
    let c2 = temp ctx in
    emit ctx (Ir.Setcond (Ir.Ltu, c2, r, cin));
    emit ctx (Ir.Binop (Ir.Or, c1, c1, c2));
    emit ctx (Ir.St_env (Envspec.cc_c, c1)));
  store_v_add ctx a b r;
  mark_parsed ctx

let sub_flags ctx a b r ~borrow_in =
  store_nz ctx r;
  (match borrow_in with
  | None ->
    let tc = temp ctx in
    emit ctx (Ir.Setcond (Ir.Geu, tc, a, b));
    emit ctx (Ir.St_env (Envspec.cc_c, tc))
  | Some bin ->
    (* borrow = (a <u b) | (a = b & bin); ARM C = ¬borrow *)
    let b1 = temp ctx in
    emit ctx (Ir.Setcond (Ir.Ltu, b1, a, b));
    let b2 = temp ctx in
    emit ctx (Ir.Setcond (Ir.Eq, b2, a, b));
    emit ctx (Ir.Binop (Ir.And, b2, b2, bin));
    emit ctx (Ir.Binop (Ir.Or, b1, b1, b2));
    emit ctx (Ir.Binopi (Ir.Xor, b1, b1, 1));
    emit ctx (Ir.St_env (Envspec.cc_c, b1)));
  store_v_sub ctx a b r;
  mark_parsed ctx

let logic_flags ctx r =
  store_nz ctx r;
  clear_cv ctx;
  mark_parsed ctx

let ld_carry ctx =
  let t = temp ctx in
  emit ctx (Ir.Ld_env (t, Envspec.cc_c));
  t

(* Data-processing body (unconditional part). Returns true if it ended
   the TB (PC write, handled via the interp helper upstream). *)
let dp ctx ~pc op ~s ~rd ~rn ~op2 =
  let a = if A.dp_op_is_test op then ld_reg ctx ~pc rn
          else match op with A.MOV | A.MVN -> -1 | _ -> ld_reg ctx ~pc rn in
  let b = eval_op2 ctx ~pc op2 in
  let sets = s || A.dp_op_is_test op in
  let result_to rd r = if rd >= 0 then st_reg ctx rd r in
  let dest = if A.dp_op_is_test op then -1 else rd in
  match op with
  | A.AND | A.TST ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.And, r, a, b));
    result_to dest r;
    if sets then logic_flags ctx r
  | A.EOR | A.TEQ ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Xor, r, a, b));
    result_to dest r;
    if sets then logic_flags ctx r
  | A.ORR ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Or, r, a, b));
    result_to dest r;
    if sets then logic_flags ctx r
  | A.BIC ->
    let nb = temp ctx in
    emit ctx (Ir.Not (nb, b));
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.And, r, a, nb));
    result_to dest r;
    if sets then logic_flags ctx r
  | A.MOV ->
    result_to dest b;
    if sets then logic_flags ctx b
  | A.MVN ->
    let r = temp ctx in
    emit ctx (Ir.Not (r, b));
    result_to dest r;
    if sets then logic_flags ctx r
  | A.ADD | A.CMN ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Add, r, a, b));
    result_to dest r;
    if sets then add_flags ctx a b r ~carry_in:None
  | A.ADC ->
    let cin = ld_carry ctx in
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Add, r, a, b));
    emit ctx (Ir.Binop (Ir.Add, r, r, cin));
    result_to dest r;
    if sets then add_flags ctx a b r ~carry_in:(Some cin)
  | A.SUB | A.CMP ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Sub, r, a, b));
    result_to dest r;
    if sets then sub_flags ctx a b r ~borrow_in:None
  | A.RSB ->
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Sub, r, b, a));
    result_to dest r;
    if sets then sub_flags ctx b a r ~borrow_in:None
  | A.SBC ->
    let cin = ld_carry ctx in
    let bin = temp ctx in
    emit ctx (Ir.Binopi (Ir.Xor, bin, cin, 1));
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Sub, r, a, b));
    emit ctx (Ir.Binop (Ir.Sub, r, r, bin));
    result_to dest r;
    if sets then sub_flags ctx a b r ~borrow_in:(Some bin)
  | A.RSC ->
    let cin = ld_carry ctx in
    let bin = temp ctx in
    emit ctx (Ir.Binopi (Ir.Xor, bin, cin, 1));
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Sub, r, b, a));
    emit ctx (Ir.Binop (Ir.Sub, r, r, bin));
    result_to dest r;
    if sets then sub_flags ctx b a r ~borrow_in:(Some bin)

let mem_offset_temp ctx ~pc off =
  match off with
  | A.Imm_off n ->
    let t = temp ctx in
    emit ctx (Ir.Movi (t, Word32.of_signed n));
    t
  | A.Reg_off { rm; kind; amount; subtract } ->
    let t = eval_op2 ctx ~pc (A.Reg_shift_imm { rm; kind; amount }) in
    if subtract then begin
      let z = temp ctx in
      emit ctx (Ir.Movi (z, 0));
      emit ctx (Ir.Binop (Ir.Sub, z, z, t));
      z
    end
    else t

(* The address a single load/store accesses, in a fresh temp: base
   plus offset, or the bare base when post-indexed. *)
let address ctx ~pc rn off (index : A.index_mode) =
  let base = ld_reg ctx ~pc rn in
  (match index with
  | A.Offset | A.Pre_indexed ->
    let offv = mem_offset_temp ctx ~pc off in
    emit ctx (Ir.Binop (Ir.Add, base, base, offv))
  | A.Post_indexed -> ());
  base

(* Base writeback of the indexed forms. After a Qemu_ld/st the only
   live temp is the op's dst; recompute base + offset from env
   (registers there are still pre-insn). *)
let emit_writeback ctx ~pc rn off (index : A.index_mode) =
  match index with
  | A.Offset -> ()
  | A.Pre_indexed | A.Post_indexed -> st_reg ctx rn (address ctx ~pc rn off A.Offset)

(* LDM/STM: [f r addr] for each listed register in ascending order,
   with the word's address in a fresh temp, then the base writeback. *)
let block_walk ctx ~pc ~kind ~rn ~writeback regs f =
  let count = A.popcount regs in
  let start_off = match kind with A.IA -> 0 | A.DB -> -4 * count in
  let k = ref 0 in
  for r = 0 to 15 do
    if regs land (1 lsl r) <> 0 then begin
      reset_temps ctx;
      let base = ld_reg ctx ~pc rn in
      emit ctx (Ir.Binopi (Ir.Add, base, base, start_off + (4 * !k)));
      f r base;
      incr k
    end
  done;
  if writeback then begin
    reset_temps ctx;
    let base = ld_reg ctx ~pc rn in
    emit ctx (Ir.Binopi (Ir.Add, base, base, 4 * count * (match kind with A.IA -> 1 | A.DB -> -1)));
    st_reg ctx rn base
  end

(* Fallback: emulate the instruction at [pc] inside QEMU. *)
let emit_interp_call ctx ~pc =
  emit ctx (Ir.Sti_env (Envspec.pc, pc));
  emit ctx (Ir.Call { helper = Helpers.h_interp_one; args = []; ret = None })

let translate_unconditional ctx ~pc (insn : A.t) =
  match insn.A.op with
  | A.Dp { rd = 15; _ } ->
    (* Any PC-writing data-processing op (branches, exception returns)
       goes through the emulation helper; it updates env.pc. *)
    emit_interp_call ctx ~pc;
    emit ctx (Ir.Exit_indirect (ctx.alloc_indirect ()));
    true
  | A.Dp { op; s; rd; rn; op2 } ->
    dp ctx ~pc op ~s ~rd ~rn ~op2;
    false
  | A.Mul { s; rd; rn; rm; acc } ->
    let a = ld_reg ctx ~pc rm in
    let b = ld_reg ctx ~pc rn in
    let r = temp ctx in
    emit ctx (Ir.Binop (Ir.Mul, r, a, b));
    (match acc with
    | Some ra ->
      let c = ld_reg ctx ~pc ra in
      emit ctx (Ir.Binop (Ir.Add, r, r, c))
    | None -> ());
    st_reg ctx rd r;
    if s then logic_flags ctx r;
    false
  | A.Ldr { width; rd; rn; off; index } ->
    let addr = address ctx ~pc rn off index in
    let dst = temp ctx in
    emit ctx (Ir.Qemu_ld { dst; addr; width; insn_pc = pc });
    emit_writeback ctx ~pc rn off index;
    if rd = 15 then begin
      st_reg ctx Envspec.pc dst;
      emit ctx (Ir.Exit_indirect (ctx.alloc_indirect ()));
      true
    end
    else begin
      st_reg ctx rd dst;
      false
    end
  | A.Ldrs { half; rd; rn; off; index } ->
    let addr = address ctx ~pc rn off index in
    let dst = temp ctx in
    emit ctx
      (Ir.Qemu_ld { dst; addr; width = (if half then A.Half else A.Byte); insn_pc = pc });
    (* sign-extend the zero-extended load *)
    let k = if half then 16 else 24 in
    emit ctx (Ir.Binopi (Ir.Shl, dst, dst, k));
    emit ctx (Ir.Binopi (Ir.Sar, dst, dst, k));
    emit_writeback ctx ~pc rn off index;
    st_reg ctx rd dst;
    false
  | A.Str { width; rd; rn; off; index } ->
    let addr = address ctx ~pc rn off index in
    let src = ld_reg ctx ~pc rd in
    emit ctx (Ir.Qemu_st { src; addr; width; insn_pc = pc });
    emit_writeback ctx ~pc rn off index;
    false
  | A.Ldm { kind; rn; writeback; regs } ->
    if regs land (1 lsl rn) <> 0 then
      (* Base register in the list: rare and fiddly — emulate. *)
      emit_interp_call ctx ~pc
    else
      block_walk ctx ~pc ~kind ~rn ~writeback regs (fun r addr ->
          let dst = temp ctx in
          emit ctx (Ir.Qemu_ld { dst; addr; width = A.Word; insn_pc = pc });
          st_reg ctx (if r = 15 then Envspec.pc else r) dst);
    if regs land 0x8000 <> 0 then begin
      emit ctx (Ir.Exit_indirect (ctx.alloc_indirect ()));
      true
    end
    else false
  | A.Stm { kind; rn; writeback; regs } ->
    block_walk ctx ~pc ~kind ~rn ~writeback regs (fun r addr ->
        let src = ld_reg ctx ~pc r in
        emit ctx (Ir.Qemu_st { src; addr; width = A.Word; insn_pc = pc }));
    false
  | A.B { link; offset } ->
    if link then begin
      let t = temp ctx in
      emit ctx (Ir.Movi (t, Word32.add pc 4));
      st_reg ctx 14 t
    end;
    let target = Word32.add pc (Word32.of_signed ((offset * 4) + 8)) in
    let slot = ctx.alloc_direct target in
    emit ctx (Ir.Goto_tb { slot; target_pc = target });
    true
  | A.Bx rm ->
    let t = ld_reg ctx ~pc rm in
    emit ctx (Ir.Binopi (Ir.And, t, t, 0xFFFF_FFFC));
    st_reg ctx Envspec.pc t;
    emit ctx (Ir.Exit_indirect (ctx.alloc_indirect ()));
    true
  | A.Movw { rd; imm16 } ->
    let t = temp ctx in
    emit ctx (Ir.Movi (t, imm16));
    st_reg ctx rd t;
    false
  | A.Movt { rd; imm16 } ->
    let t = ld_reg ctx ~pc rd in
    emit ctx (Ir.Binopi (Ir.And, t, t, 0xFFFF));
    let hi = temp ctx in
    emit ctx (Ir.Movi (hi, imm16 lsl 16));
    emit ctx (Ir.Binop (Ir.Or, t, t, hi));
    st_reg ctx rd t;
    false
  | A.Mull _ | A.Clz _ ->
    (* No direct 32-bit IR lowering (64-bit product / bit scan); QEMU
       emulates these via a helper (and the rule engine falls back for
       the same reason). *)
    emit_interp_call ctx ~pc;
    false
  | A.Mrs _ | A.Mrc _ | A.Vmsr _ | A.Vmrs _ | A.Msr { write_control = false; _ } ->
    (* System-level but control-flow/privilege neutral: emulate and
       continue the block. *)
    emit_interp_call ctx ~pc;
    false
  | A.Msr _ | A.Cps _ | A.Mcr _ ->
    (* May change privilege, MMU state or the I-bit: emulate and end
       the block so translation-time assumptions stay valid. *)
    emit_interp_call ctx ~pc;
    let next = Word32.add pc 4 in
    let slot = ctx.alloc_direct next in
    emit ctx (Ir.Goto_tb { slot; target_pc = next });
    true
  | A.Svc _ | A.Udf _ ->
    (* The helper takes the guest exception and stops the TB; the
       trailing goto is the (unreachable) architectural fallthrough. *)
    emit_interp_call ctx ~pc;
    let next = Word32.add pc 4 in
    let slot = ctx.alloc_direct next in
    emit ctx (Ir.Goto_tb { slot; target_pc = next });
    true
  | A.Nop -> false

let translate_insn ctx ~pc (insn : A.t) =
  reset_temps ctx;
  (* Baseline-TCG tier: every instruction this frontend translates
     retires under the baseline attribution; rule translators stamp
     their own words at their own retirement points. *)
  emit ctx (Ir.Insn_start (Covscope.Attr.pack ~tier:Covscope.Attr.Baseline insn));
  match insn.A.cond with
  | Cond.AL -> translate_unconditional ctx ~pc insn
  | cond ->
    (match insn.A.op with
    | A.B { link; offset } ->
      (* Conditional direct branch: two chainable exits. *)
      let skip = label ctx in
      emit_cond_guard ctx cond ~skip;
      reset_temps ctx;
      if link then begin
        let t = temp ctx in
        emit ctx (Ir.Movi (t, Word32.add pc 4));
        st_reg ctx 14 t
      end;
      let target = Word32.add pc (Word32.of_signed ((offset * 4) + 8)) in
      let slot_taken = ctx.alloc_direct target in
      emit ctx (Ir.Goto_tb { slot = slot_taken; target_pc = target });
      emit ctx (Ir.Set_label skip);
      let next = Word32.add pc 4 in
      let slot_fall = ctx.alloc_direct next in
      emit ctx (Ir.Goto_tb { slot = slot_fall; target_pc = next });
      true
    | _ ->
      let skip = label ctx in
      emit_cond_guard ctx cond ~skip;
      reset_temps ctx;
      let ended = translate_unconditional ctx ~pc insn in
      emit ctx (Ir.Set_label skip);
      if ended then begin
        (* The skipped path falls through to the next instruction. *)
        let next = Word32.add pc 4 in
        let slot = ctx.alloc_direct next in
        emit ctx (Ir.Goto_tb { slot; target_pc = next })
      end;
      ended)

let emit_goto ctx pc =
  let slot = ctx.alloc_direct pc in
  emit ctx (Ir.Goto_tb { slot; target_pc = pc })
