open Repro_common

type step_result =
  | Stepped
  | Took_exception of Cpu.exn_kind
  | Decode_error of string

(* Register read with the architectural PC+8 pipeline view. *)
let read_reg cpu r =
  if r = 15 then Word32.add (Cpu.get_pc cpu) 8 else Cpu.get_reg cpu r

let advance cpu = Cpu.set_pc cpu (Word32.add (Cpu.get_pc cpu) 4)

let take cpu kind =
  Cpu.take_exception cpu kind ~pc_of_faulting_insn:(Cpu.get_pc cpu);
  Took_exception kind

(* A faulting fetch is a prefetch abort; a faulting load or store a
   data abort, which reports the address and kind. *)
let abort cpu (f : Mem.fault) =
  match f.access with
  | Mem.Fetch -> take cpu Cpu.Prefetch_abort
  | Mem.Load | Mem.Store ->
    Cpu.set_dfar cpu f.vaddr;
    Cpu.set_dfsr cpu (Mem.dfsr_status f.kind);
    take cpu Cpu.Data_abort

(* Flags are ints in their CPSR bit positions, so a step builds no
   flags record. *)
let flag_n = 0x8000_0000
let flag_z = 0x4000_0000
let flag_c = 0x2000_0000
let flag_v = 0x1000_0000

let nz r = (r land flag_n) lor if r = 0 then flag_z else 0

let add_nzcv a b ~carry r =
  nz r
  lor (if Word32.carry_of_add a b ~carry_in:carry then flag_c else 0)
  lor if Word32.overflow_of_add a b r then flag_v else 0

(* ARM C for subtraction = NOT borrow. *)
let sub_nzcv a b ~borrow r =
  nz r
  lor (if Word32.borrow_of_sub a b ~borrow_in:borrow then 0 else flag_c)
  lor if Word32.overflow_of_sub a b r then flag_v else 0

(* Write a data-processing result with its NZCV (when [s]). A PC write
   is a branch, and with the S bit in an exception mode it is an
   exception return (CPSR := SPSR) instead of a flag write. *)
let dp_result cpu ~s ~rd r nzcv =
  if rd = 15 then begin
    (if s then
       match Cpu.mode cpu with
       | Cpu.User | Cpu.System -> ()
       | Cpu.Supervisor | Cpu.Irq | Cpu.Abort | Cpu.Undef ->
         Cpu.set_cpsr cpu (Cpu.get_spsr cpu));
    Cpu.set_pc cpu (Word32.logand r 0xFFFF_FFFC)
  end
  else begin
    if s then Cpu.set_nzcv cpu nzcv;
    Cpu.set_reg cpu rd r;
    advance cpu
  end

let dp_logical cpu ~s ~rd r = dp_result cpu ~s ~rd r (nz r)

let dp_test cpu nzcv =
  Cpu.set_nzcv cpu nzcv;
  advance cpu

(* Model simplification (see DESIGN.md): S-bit logical operations set
   C := 0 and V := 0 (host-aligned) instead of the shifter carry-out;
   arithmetic flag semantics are exact. *)
let exec_dp cpu (op : Insn.dp_op) ~s ~rd ~rn ~op2 =
  let carry = Cpu.get_cpsr cpu land flag_c <> 0 in
  let a = read_reg cpu rn in
  (* No shifter carry-out: logical operations do not use it. *)
  let b = Insn.operand2_word read_reg cpu op2 in
  match op with
  | AND -> dp_logical cpu ~s ~rd (Word32.logand a b)
  | EOR -> dp_logical cpu ~s ~rd (Word32.logxor a b)
  | ORR -> dp_logical cpu ~s ~rd (Word32.logor a b)
  | BIC -> dp_logical cpu ~s ~rd (Word32.logand a (Word32.lognot b))
  | MOV -> dp_logical cpu ~s ~rd b
  | MVN -> dp_logical cpu ~s ~rd (Word32.lognot b)
  | TST -> dp_test cpu (nz (Word32.logand a b))
  | TEQ -> dp_test cpu (nz (Word32.logxor a b))
  | ADD ->
    let r = Word32.mask (a + b) in
    dp_result cpu ~s ~rd r (add_nzcv a b ~carry:false r)
  | ADC ->
    let r = Word32.mask (a + b + Bool.to_int carry) in
    dp_result cpu ~s ~rd r (add_nzcv a b ~carry r)
  | SUB ->
    let r = Word32.mask (a - b) in
    dp_result cpu ~s ~rd r (sub_nzcv a b ~borrow:false r)
  | RSB ->
    let r = Word32.mask (b - a) in
    dp_result cpu ~s ~rd r (sub_nzcv b a ~borrow:false r)
  | SBC ->
    let r = Word32.mask (a - b - Bool.to_int (not carry)) in
    dp_result cpu ~s ~rd r (sub_nzcv a b ~borrow:(not carry) r)
  | RSC ->
    let r = Word32.mask (b - a - Bool.to_int (not carry)) in
    dp_result cpu ~s ~rd r (sub_nzcv b a ~borrow:(not carry) r)
  | CMP -> dp_test cpu (sub_nzcv a b ~borrow:false (Word32.mask (a - b)))
  | CMN -> dp_test cpu (add_nzcv a b ~carry:false (Word32.mask (a + b)))

let mem_width = function Insn.Word -> Mem.W32 | Insn.Byte -> Mem.W8 | Insn.Half -> Mem.W16

(* The effective address of a single load/store is base + offset; a
   post-indexed access goes to the base, and every mode but [Offset]
   writes the effective address back. *)
let mem_offset cpu (off : Insn.mem_offset) =
  match off with
  | Imm_off n -> Word32.of_signed n
  | Reg_off { rm; kind; amount; subtract } ->
    let v = Insn.shift_value kind (read_reg cpu rm) amount in
    if subtract then Word32.neg v else v

let access_addr (index : Insn.index_mode) ~base ~eff =
  match index with Post_indexed -> base | Offset | Pre_indexed -> eff

let write_back cpu (index : Insn.index_mode) ~rn eff =
  match index with Offset -> () | Pre_indexed | Post_indexed -> Cpu.set_reg cpu rn eff

(* LDM makes every load before it writes any register, so a data abort
   part-way leaves the registers as they were. The recursion loads in
   ascending order on the way down and writes on the way back up; the
   base write-back ([wb_rn] >= 0) at the bottom comes first, so a
   loaded base register wins over it. *)
let rec ldm cpu (mem : Mem.iface) ~privileged regs r addr ~wb_rn ~wb =
  if r > 15 then (if wb_rn >= 0 then Cpu.set_reg cpu wb_rn wb)
  else if regs land (1 lsl r) = 0 then ldm cpu mem ~privileged regs (r + 1) addr ~wb_rn ~wb
  else begin
    let v = mem.load Mem.W32 ~privileged addr in
    ldm cpu mem ~privileged regs (r + 1) (Word32.add addr 4) ~wb_rn ~wb;
    if r = 15 then Cpu.set_pc cpu (Word32.logand v 0xFFFF_FFFC) else Cpu.set_reg cpu r v
  end

(* Memory instructions raise [Mem.Fault] before they change a register;
   [execute_insn] and [step] turn it into the abort. *)
let exec_mem cpu (mem : Mem.iface) insn_op =
  let privileged = Cpu.mode_is_privileged (Cpu.mode cpu) in
  match insn_op with
  | Insn.Ldr { width; rd; rn; off; index } ->
    let base = read_reg cpu rn in
    let eff = Word32.add base (mem_offset cpu off) in
    let v = mem.load (mem_width width) ~privileged (access_addr index ~base ~eff) in
    write_back cpu index ~rn eff;
    if rd = 15 then Cpu.set_pc cpu (Word32.logand v 0xFFFF_FFFC)
    else begin
      Cpu.set_reg cpu rd v;
      advance cpu
    end
  | Insn.Ldrs { half; rd; rn; off; index } ->
    let base = read_reg cpu rn in
    let eff = Word32.add base (mem_offset cpu off) in
    let width = if half then Mem.W16 else Mem.W8 in
    let v = mem.load width ~privileged (access_addr index ~base ~eff) in
    write_back cpu index ~rn eff;
    Cpu.set_reg cpu rd (Word32.mask (Word32.sign_extend ~width:(if half then 16 else 8) v));
    advance cpu
  | Insn.Str { width; rd; rn; off; index } ->
    let base = read_reg cpu rn in
    let eff = Word32.add base (mem_offset cpu off) in
    let v = read_reg cpu rd in
    let v =
      match width with
      | Insn.Byte -> v land 0xFF
      | Insn.Half -> v land 0xFFFF
      | Insn.Word -> v
    in
    mem.store (mem_width width) ~privileged (access_addr index ~base ~eff) v;
    write_back cpu index ~rn eff;
    advance cpu
  | Insn.Ldm { kind; rn; writeback; regs } ->
    let base = read_reg cpu rn in
    let bytes = 4 * Insn.popcount regs in
    let start = match kind with Insn.IA -> base | Insn.DB -> Word32.sub base bytes in
    let after = match kind with Insn.IA -> Word32.add base bytes | Insn.DB -> start in
    ldm cpu mem ~privileged regs 0 start ~wb_rn:(if writeback then rn else -1) ~wb:after;
    if regs land 0x8000 = 0 then advance cpu
  | Insn.Stm { kind; rn; writeback; regs } ->
    let base = read_reg cpu rn in
    let bytes = 4 * Insn.popcount regs in
    let start = match kind with Insn.IA -> base | Insn.DB -> Word32.sub base bytes in
    let addr = ref start in
    for r = 0 to 15 do
      if regs land (1 lsl r) <> 0 then begin
        mem.store Mem.W32 ~privileged !addr (read_reg cpu r);
        addr := Word32.add !addr 4
      end
    done;
    if writeback then
      Cpu.set_reg cpu rn (match kind with Insn.IA -> Word32.add base bytes | Insn.DB -> start);
    advance cpu
  | Insn.Dp _ | Insn.Mul _ | Insn.Mull _ | Insn.Clz _ | Insn.B _ | Insn.Bx _
  | Insn.Movw _ | Insn.Movt _ | Insn.Mrs _ | Insn.Msr _ | Insn.Svc _ | Insn.Cps _
  | Insn.Mcr _ | Insn.Mrc _ | Insn.Vmsr _ | Insn.Vmrs _ | Insn.Nop | Insn.Udf _ ->
    assert false

(* cp15 register file: (crn, opc1, crm, opc2) dispatch. Unmodelled
   registers read as zero and ignore writes, like QEMU's permissive
   default for benign coprocessor accesses. *)
let cp15_write cpu (mem : Mem.iface) ~crn ~crm:_ ~opc1:_ ~opc2:_ v =
  match crn with
  | 1 -> Cpu.set_mmu_enabled cpu (Word32.bit v 0)
  | 2 -> Cpu.set_ttbr cpu v
  | 5 -> Cpu.set_dfsr cpu v
  | 6 -> Cpu.set_dfar cpu v
  | 7 -> () (* cache maintenance: structural nop *)
  | 8 ->
    Cpu.bump_tlb_flush cpu;
    mem.flush_tlb ()
  | _ -> ()

let cp15_read cpu ~crn ~crm:_ ~opc1:_ ~opc2:_ =
  match crn with
  | 1 -> if Cpu.mmu_enabled cpu then 1 else 0
  | 2 -> Cpu.get_ttbr cpu
  | 5 -> Cpu.get_dfsr cpu
  | 6 -> Cpu.get_dfar cpu
  | _ -> 0

let clz v =
  let n = ref 0 in
  while !n < 32 && v land (0x8000_0000 lsr !n) = 0 do
    incr n
  done;
  !n

(* Execute one decoded instruction; a memory fault escapes as
   [Mem.Fault]. *)
let execute cpu (mem : Mem.iface) ({ cond; op } : Insn.t) =
  if not (Cond.holds_word cond (Cpu.get_cpsr cpu)) then begin
    advance cpu;
    Stepped
  end
  else
    match op with
    | Insn.Dp { op = dpo; s; rd; rn; op2 } ->
      exec_dp cpu dpo ~s:(s || Insn.dp_op_is_test dpo) ~rd ~rn ~op2;
      Stepped
    | Insn.Mul { s; rd; rn; rm; acc } ->
      let v = Word32.mul (read_reg cpu rm) (read_reg cpu rn) in
      let v = match acc with Some ra -> Word32.add v (read_reg cpu ra) | None -> v in
      Cpu.set_reg cpu rd v;
      (* MULS, like logical ops, is modelled host-aligned: C,V := 0. *)
      if s then Cpu.set_nzcv cpu (nz v);
      advance cpu;
      Stepped
    | Insn.Mull { signed; s; rdlo; rdhi; rn; rm } ->
      let a = read_reg cpu rm and b = read_reg cpu rn in
      let product =
        if signed then Int64.mul (Int64.of_int (Word32.signed a)) (Int64.of_int (Word32.signed b))
        else Int64.mul (Int64.of_int a) (Int64.of_int b)
      in
      let lo = Int64.to_int (Int64.logand product 0xFFFFFFFFL) in
      let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical product 32) 0xFFFFFFFFL) in
      Cpu.set_reg cpu rdlo lo;
      Cpu.set_reg cpu rdhi hi;
      if s then
        Cpu.set_nzcv cpu
          ((hi land flag_n)
          lor (if hi = 0 && lo = 0 then flag_z else 0)
          lor (Cpu.get_cpsr cpu land (flag_c lor flag_v)));
      advance cpu;
      Stepped
    | Insn.Clz { rd; rm } ->
      Cpu.set_reg cpu rd (clz (read_reg cpu rm));
      advance cpu;
      Stepped
    | Insn.Ldr _ | Insn.Ldrs _ | Insn.Str _ | Insn.Ldm _ | Insn.Stm _ ->
      exec_mem cpu mem op;
      Stepped
    | Insn.B { link; offset } ->
      let pc = Cpu.get_pc cpu in
      if link then Cpu.set_reg cpu 14 (Word32.add pc 4);
      Cpu.set_pc cpu (Word32.add pc (Word32.of_signed ((offset * 4) + 8)));
      Stepped
    | Insn.Bx rm ->
      Cpu.set_pc cpu (Word32.logand (read_reg cpu rm) 0xFFFF_FFFC);
      Stepped
    | Insn.Movw { rd; imm16 } ->
      Cpu.set_reg cpu rd imm16;
      advance cpu;
      Stepped
    | Insn.Movt { rd; imm16 } ->
      Cpu.set_reg cpu rd
        (Word32.insert (Cpu.get_reg cpu rd) ~lo:16 ~len:16 imm16);
      advance cpu;
      Stepped
    | Insn.Mrs { rd; spsr } ->
      Cpu.set_reg cpu rd (if spsr then Cpu.get_spsr cpu else Cpu.get_cpsr cpu);
      advance cpu;
      Stepped
    | Insn.Msr { spsr; write_flags; write_control; rm } ->
      let v = read_reg cpu rm in
      let privileged = Cpu.mode_is_privileged (Cpu.mode cpu) in
      if spsr then begin
        if privileged then begin
          let cur = Cpu.get_spsr cpu in
          let cur = if write_flags then Word32.insert cur ~lo:28 ~len:4 (Word32.extract v ~lo:28 ~len:4) else cur in
          let cur = if write_control then Word32.insert cur ~lo:0 ~len:8 (Word32.extract v ~lo:0 ~len:8) else cur in
          Cpu.set_spsr cpu cur
        end
      end
      else begin
        if write_flags then Cpu.set_nzcv cpu v;
        (* Unprivileged writes to the control bits are ignored, per the
           architecture. *)
        if write_control && privileged then begin
          let cur = Cpu.get_cpsr cpu in
          let nv = Word32.insert cur ~lo:0 ~len:8 (Word32.extract v ~lo:0 ~len:8) in
          Cpu.set_cpsr cpu nv
        end
      end;
      advance cpu;
      Stepped
    | Insn.Svc _ -> take cpu Cpu.Supervisor_call
    | Insn.Cps { disable } ->
      if Cpu.mode_is_privileged (Cpu.mode cpu) then Cpu.set_irq_masked cpu disable;
      advance cpu;
      Stepped
    | Insn.Mcr { opc1; rt; crn; crm; opc2 } ->
      if not (Cpu.mode_is_privileged (Cpu.mode cpu)) then take cpu Cpu.Undefined_insn
      else begin
        cp15_write cpu mem ~crn ~crm ~opc1 ~opc2 (read_reg cpu rt);
        advance cpu;
        Stepped
      end
    | Insn.Mrc { opc1; rt; crn; crm; opc2 } ->
      if not (Cpu.mode_is_privileged (Cpu.mode cpu)) then take cpu Cpu.Undefined_insn
      else begin
        let v = cp15_read cpu ~crn ~crm ~opc1 ~opc2 in
        if rt <> 15 then Cpu.set_reg cpu rt v;
        advance cpu;
        Stepped
      end
    | Insn.Vmsr { rt } ->
      Cpu.set_fpscr cpu (read_reg cpu rt);
      advance cpu;
      Stepped
    | Insn.Vmrs { rt } ->
      let v = Cpu.get_fpscr cpu in
      if rt = 15 then Cpu.set_nzcv cpu v else Cpu.set_reg cpu rt v;
      advance cpu;
      Stepped
    | Insn.Nop ->
      advance cpu;
      Stepped
    | Insn.Udf _ -> take cpu Cpu.Undefined_insn

let execute_insn cpu mem insn =
  match execute cpu mem insn with r -> r | exception Mem.Fault f -> abort cpu f

(* The one fault handler of a step covers the fetch and the
   instruction's own accesses. *)
let step cache cpu (mem : Mem.iface) ~irq =
  if irq && not (Cpu.irq_masked cpu) then take cpu Cpu.Irq
  else
    match
      let word = mem.fetch ~privileged:(Cpu.mode_is_privileged (Cpu.mode cpu)) (Cpu.get_pc cpu) in
      match Decode_cache.decode cache word with
      | Ok insn -> execute cpu mem insn
      | Error e -> Decode_error e
    with
    | r -> r
    | exception Mem.Fault f -> abort cpu f

