open Repro_common

type step_result =
  | Stepped
  | Took_exception of Cpu.exn_kind
  | Decode_error of string

(* Register read with the architectural PC+8 pipeline view. *)
let read_reg cpu r =
  if r = 15 then Word32.add (Cpu.get_pc cpu) 8 else Cpu.get_reg cpu r

let advance cpu = Cpu.set_pc cpu (Word32.add (Cpu.get_pc cpu) 4)

(* Write a data-processing result; a PC write is a branch, and with the
   S bit in an exception mode it is an exception return (CPSR := SPSR). *)
let write_dp_result cpu rd v ~s ~restore_cpsr =
  if rd = 15 then begin
    if s && restore_cpsr then Cpu.set_cpsr cpu (Cpu.get_spsr cpu);
    Cpu.set_pc cpu (Word32.logand v 0xFFFF_FFFC)
  end
  else begin
    Cpu.set_reg cpu rd v;
    advance cpu
  end

let take cpu kind =
  Cpu.take_exception cpu kind ~pc_of_faulting_insn:(Cpu.get_pc cpu);
  Took_exception kind

let data_abort cpu (f : Mem.fault) =
  Cpu.set_dfar cpu f.vaddr;
  Cpu.set_dfsr cpu (Mem.dfsr_status f.kind);
  take cpu Cpu.Data_abort

exception Abort of Mem.fault

let exec_dp cpu (op : Insn.dp_op) ~s ~rd ~rn ~op2 =
  let flags = Cpu.get_flags cpu in
  let carry_in = flags.Cond.c in
  let rn_v = read_reg cpu rn in
  let op2_v, _shifter_carry = Insn.operand2_value op2 (read_reg cpu) ~carry:carry_in in
  (* Model simplification (see DESIGN.md): S-bit logical operations set
     C := 0 and V := 0 (host-aligned) instead of the shifter carry-out;
     arithmetic flag semantics are exact. *)
  let logical result = (result, { flags with Cond.c = false; v = false }) in
  let add_like a b ~carry =
    let r = Word32.mask (a + b + if carry then 1 else 0) in
    ( r,
      {
        Cond.n = Word32.is_negative r;
        z = r = 0;
        c = Word32.carry_of_add a b ~carry_in:carry;
        v = Word32.overflow_of_add a b r;
      } )
  in
  let sub_like a b ~borrow =
    let r = Word32.mask (a - b - if borrow then 1 else 0) in
    ( r,
      {
        Cond.n = Word32.is_negative r;
        z = r = 0;
        (* ARM C for subtraction = NOT borrow. *)
        c = not (Word32.borrow_of_sub a b ~borrow_in:borrow);
        v = Word32.overflow_of_sub a b r;
      } )
  in
  let finish_logical r =
    let r = Word32.mask r in
    let v, f = logical r in
    (Some v, { f with Cond.n = Word32.is_negative r; z = r = 0 })
  in
  let result, new_flags =
    match op with
    | AND -> finish_logical (Word32.logand rn_v op2_v)
    | EOR -> finish_logical (Word32.logxor rn_v op2_v)
    | ORR -> finish_logical (Word32.logor rn_v op2_v)
    | BIC -> finish_logical (Word32.logand rn_v (Word32.lognot op2_v))
    | MOV -> finish_logical op2_v
    | MVN -> finish_logical (Word32.lognot op2_v)
    | TST ->
      let r = Word32.logand rn_v op2_v in
      let _, f = finish_logical r in
      (None, f)
    | TEQ ->
      let r = Word32.logxor rn_v op2_v in
      let _, f = finish_logical r in
      (None, f)
    | ADD ->
      let r, f = add_like rn_v op2_v ~carry:false in
      (Some r, f)
    | ADC ->
      let r, f = add_like rn_v op2_v ~carry:carry_in in
      (Some r, f)
    | SUB ->
      let r, f = sub_like rn_v op2_v ~borrow:false in
      (Some r, f)
    | RSB ->
      let r, f = sub_like op2_v rn_v ~borrow:false in
      (Some r, f)
    | SBC ->
      let r, f = sub_like rn_v op2_v ~borrow:(not carry_in) in
      (Some r, f)
    | RSC ->
      let r, f = sub_like op2_v rn_v ~borrow:(not carry_in) in
      (Some r, f)
    | CMP ->
      let _, f = sub_like rn_v op2_v ~borrow:false in
      (None, f)
    | CMN ->
      let _, f = add_like rn_v op2_v ~carry:false in
      (None, f)
  in
  let sets_flags = s || Insn.dp_op_is_test op in
  (* Flag write order: an S-bit PC write restores CPSR instead. *)
  match result with
  | None ->
    Cpu.set_flags cpu new_flags;
    advance cpu
  | Some v ->
    if rd <> 15 && sets_flags then Cpu.set_flags cpu new_flags;
    write_dp_result cpu rd v ~s:sets_flags
      ~restore_cpsr:(Cpu.mode_is_privileged (Cpu.mode cpu) && Cpu.mode cpu <> Cpu.System)

let mem_width = function Insn.Word -> Mem.W32 | Insn.Byte -> Mem.W8 | Insn.Half -> Mem.W16

let mem_address cpu rn off index =
  let base = read_reg cpu rn in
  let off_v =
    match off with
    | Insn.Imm_off n -> Word32.of_signed n
    | Insn.Reg_off { rm; kind; amount; subtract } ->
      let v, _ =
        Insn.operand2_value
          (Insn.Reg_shift_imm { rm; kind; amount })
          (read_reg cpu) ~carry:false
      in
      if subtract then Word32.neg v else v
  in
  let effective = Word32.add base off_v in
  match index with
  | Insn.Offset -> (effective, None)
  | Insn.Pre_indexed -> (effective, Some effective)
  | Insn.Post_indexed -> (base, Some effective)

let exec_mem cpu (mem : Mem.iface) insn_op =
  let privileged = Cpu.mode_is_privileged (Cpu.mode cpu) in
  match insn_op with
  | Insn.Ldr { width; rd; rn; off; index } -> (
    let addr, writeback = mem_address cpu rn off index in
    match mem.load (mem_width width) ~privileged addr with
    | Error f -> data_abort cpu f
    | Ok v ->
      (match writeback with Some wb -> Cpu.set_reg cpu rn wb | None -> ());
      if rd = 15 then Cpu.set_pc cpu (Word32.logand v 0xFFFF_FFFC)
      else begin
        Cpu.set_reg cpu rd v;
        advance cpu
      end;
      Stepped)
  | Insn.Ldrs { half; rd; rn; off; index } -> (
    let addr, writeback = mem_address cpu rn off index in
    let width = if half then Mem.W16 else Mem.W8 in
    match mem.load width ~privileged addr with
    | Error f -> data_abort cpu f
    | Ok v ->
      (match writeback with Some wb -> Cpu.set_reg cpu rn wb | None -> ());
      Cpu.set_reg cpu rd
        (Word32.mask (Word32.sign_extend ~width:(if half then 16 else 8) v));
      advance cpu;
      Stepped)
  | Insn.Str { width; rd; rn; off; index } -> (
    let addr, writeback = mem_address cpu rn off index in
    let v = read_reg cpu rd in
    let v =
      match width with
      | Insn.Byte -> v land 0xFF
      | Insn.Half -> v land 0xFFFF
      | Insn.Word -> v
    in
    match mem.store (mem_width width) ~privileged addr v with
    | Error f -> data_abort cpu f
    | Ok () ->
      (match writeback with Some wb -> Cpu.set_reg cpu rn wb | None -> ());
      advance cpu;
      Stepped)
  | Insn.Ldm { kind; rn; writeback; regs } -> (
    let n = ref 0 in
    for r = 0 to 15 do
      if regs land (1 lsl r) <> 0 then incr n
    done;
    let base = read_reg cpu rn in
    let start =
      match kind with Insn.IA -> base | Insn.DB -> Word32.sub base (4 * !n)
    in
    try
      let addr = ref start in
      let loaded = Array.make 16 None in
      for r = 0 to 15 do
        if regs land (1 lsl r) <> 0 then begin
          (match mem.load Mem.W32 ~privileged !addr with
          | Ok v -> loaded.(r) <- Some v
          | Error f -> raise (Abort f));
          addr := Word32.add !addr 4
        end
      done;
      if writeback then
        Cpu.set_reg cpu rn
          (match kind with Insn.IA -> Word32.add base (4 * !n) | Insn.DB -> start);
      let branched = ref false in
      for r = 0 to 15 do
        match loaded.(r) with
        | Some v ->
          if r = 15 then begin
            Cpu.set_pc cpu (Word32.logand v 0xFFFF_FFFC);
            branched := true
          end
          else Cpu.set_reg cpu r v
        | None -> ()
      done;
      if not !branched then advance cpu;
      Stepped
    with Abort f -> data_abort cpu f)
  | Insn.Stm { kind; rn; writeback; regs } -> (
    let n = ref 0 in
    for r = 0 to 15 do
      if regs land (1 lsl r) <> 0 then incr n
    done;
    let base = read_reg cpu rn in
    let start =
      match kind with Insn.IA -> base | Insn.DB -> Word32.sub base (4 * !n)
    in
    try
      let addr = ref start in
      for r = 0 to 15 do
        if regs land (1 lsl r) <> 0 then begin
          (match mem.store Mem.W32 ~privileged !addr (read_reg cpu r) with
          | Ok () -> ()
          | Error f -> raise (Abort f));
          addr := Word32.add !addr 4
        end
      done;
      if writeback then
        Cpu.set_reg cpu rn
          (match kind with Insn.IA -> Word32.add base (4 * !n) | Insn.DB -> start);
      advance cpu;
      Stepped
    with Abort f -> data_abort cpu f)
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

let execute_insn cpu (mem : Mem.iface) ({ cond; op } : Insn.t) =
  if not (Cond.holds cond (Cpu.get_flags cpu)) then begin
    advance cpu;
    Stepped
  end
  else
    match op with
    | Insn.Dp { op = dpo; s; rd; rn; op2 } ->
      exec_dp cpu dpo ~s ~rd ~rn ~op2;
      Stepped
    | Insn.Mul { s; rd; rn; rm; acc } ->
      let v = Word32.mul (read_reg cpu rm) (read_reg cpu rn) in
      let v =
        match acc with Some ra -> Word32.add v (read_reg cpu ra) | None -> v
      in
      Cpu.set_reg cpu rd v;
      if s then
        (* MULS, like logical ops, is modelled host-aligned: C,V := 0. *)
        Cpu.set_flags cpu
          { Cond.n = Word32.is_negative v; z = v = 0; c = false; v = false };
      advance cpu;
      Stepped
    | Insn.Mull { signed; s; rdlo; rdhi; rn; rm } ->
      let to64 v =
        if signed then Int64.of_int (Word32.signed v)
        else Int64.of_int (v land 0xFFFFFFFF)
      in
      let product = Int64.mul (to64 (read_reg cpu rm)) (to64 (read_reg cpu rn)) in
      let lo = Int64.to_int (Int64.logand product 0xFFFFFFFFL) in
      let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical product 32) 0xFFFFFFFFL) in
      Cpu.set_reg cpu rdlo lo;
      Cpu.set_reg cpu rdhi hi;
      if s then begin
        let f = Cpu.get_flags cpu in
        Cpu.set_flags cpu
          { f with Cond.n = Word32.is_negative hi; z = hi = 0 && lo = 0 }
      end;
      advance cpu;
      Stepped
    | Insn.Clz { rd; rm } ->
      let v = read_reg cpu rm in
      let rec count n bit = if bit < 0 then n else
        if v land (1 lsl bit) <> 0 then n else count (n + 1) (bit - 1)
      in
      Cpu.set_reg cpu rd (count 0 31);
      advance cpu;
      Stepped
    | Insn.Ldr _ | Insn.Ldrs _ | Insn.Str _ | Insn.Ldm _ | Insn.Stm _ ->
      exec_mem cpu mem op
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
        if write_flags then Cpu.set_flags cpu (Cond.flags_of_word v);
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
      if rt = 15 then Cpu.set_flags cpu (Cond.flags_of_word v)
      else Cpu.set_reg cpu rt v;
      advance cpu;
      Stepped
    | Insn.Nop ->
      advance cpu;
      Stepped
    | Insn.Udf _ -> take cpu Cpu.Undefined_insn

let step cpu (mem : Mem.iface) ~irq =
  if irq && not (Cpu.irq_masked cpu) then take cpu Cpu.Irq
  else
    let privileged = Cpu.mode_is_privileged (Cpu.mode cpu) in
    match mem.fetch ~privileged (Cpu.get_pc cpu) with
    | Error _f -> take cpu Cpu.Prefetch_abort
    | Ok word -> (
      match Encode.decode word with
      | Error e -> Decode_error e
      | Ok insn -> execute_insn cpu mem insn)

let run cpu mem ~irq ~max_steps =
  let rec loop n =
    if n >= max_steps then n
    else
      match step cpu mem ~irq:(irq ()) with
      | Stepped | Took_exception _ -> loop (n + 1)
      | Decode_error _ -> n
  in
  loop 0
