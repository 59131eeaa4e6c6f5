
module X = Repro_x86.Insn
module Prog = Repro_x86.Prog
module Mmu = Repro_mmu.Mmu

let temp_pool =
  [| X.rax; X.rdx; X.rbx; X.rsi; X.rdi; X.r8; X.r9; X.r10; X.r11; X.r12; X.r13 |]

(* Scratch registers for the inline TLB probe; disjoint from the pool. *)
let mmu_s1 = X.r14
let mmu_s2 = X.r15

let host_of_temp t =
  if t < 0 || t >= Array.length temp_pool then
    failwith (Printf.sprintf "Backend: temp %d outside pool" t)
  else temp_pool.(t)

let env_op slot = X.Mem (X.env_slot slot)

let binop_to_x86 : Ir.binop -> [ `Alu of X.alu_op | `Shift of X.shift_op | `Mul ] =
  function
  | Ir.Add -> `Alu X.Add
  | Ir.Sub -> `Alu X.Sub
  | Ir.And -> `Alu X.And
  | Ir.Or -> `Alu X.Or
  | Ir.Xor -> `Alu X.Xor
  | Ir.Mul -> `Mul
  | Ir.Shl -> `Shift X.Shl
  | Ir.Shr -> `Shift X.Shr
  | Ir.Sar -> `Shift X.Sar
  | Ir.Ror -> `Shift X.Ror

let tlb_probe b ~addr ~set ~pa ~tmp ~bank ~write ~slow =
  let emit i = Prog.emit b ~tag:X.Tag_mmu i in
  let tlb disp = X.Mem { seg = X.Tlb; base = Some set; index = None; scale = 1; disp } in
  (* Set index: set = ((addr >> 12) & 0xFF) * 16 bytes *)
  emit (X.Mov { width = X.W32; dst = X.Reg set; src = X.Reg addr });
  emit (X.Shift { op = X.Shr; dst = X.Reg set; amount = X.Sh_imm 12 });
  emit (X.Alu { op = X.And; dst = X.Reg set; src = X.Imm 0xFF });
  emit (X.Shift { op = X.Shl; dst = X.Reg set; amount = X.Sh_imm 4 });
  (* Tag compare: the read tag is the set's first word, the write tag
     its second *)
  emit (X.Mov { width = X.W32; dst = X.Reg pa; src = X.Reg addr });
  emit (X.Alu { op = X.And; dst = X.Reg pa; src = X.Imm Mmu.page_mask });
  emit (X.Alu { op = X.Cmp; dst = tlb (bank + if write then 4 else 0); src = X.Reg pa });
  emit (X.Jcc { cc = X.NE; target = slow });
  (* Hit: paddr = tlb.paddr_page | (addr & 0xFFF) *)
  emit (X.Mov { width = X.W32; dst = X.Reg pa; src = tlb (bank + 8) });
  emit (X.Mov { width = X.W32; dst = X.Reg tmp; src = X.Reg addr });
  emit (X.Alu { op = X.And; dst = X.Reg tmp; src = X.Imm 0xFFF });
  emit (X.Alu { op = X.Add; dst = X.Reg pa; src = X.Reg tmp });
  X.Mem { seg = X.Ram; base = Some pa; index = None; scale = 1; disp = 0 }

let ram_load (width : Ir.width) ~dst src =
  match width with
  | Word -> X.Mov { width = X.W32; dst = X.Reg dst; src }
  | Half -> X.Movzx16 { dst; src }
  | Byte -> X.Movzx8 { dst; src }

let ram_store (width : Ir.width) dst ~src =
  let width = match width with Word -> X.W32 | Half -> X.W16 | Byte -> X.W8 in
  X.Mov { width; dst; src = X.Reg src }

(* A softMMU slow path: the helper call a TLB miss jumps to. *)
type stub = {
  label : int;
  done_ : int;
  addr : X.reg;
  insn_pc : int;
  helper : int;
  value : X.reg option;  (* the stored value *)
  result : X.reg option;  (* the loaded value's destination *)
}

let lower b ~privileged ~tb_pc ops =
  let stubs = ref [] in
  (* IR label id → prog label id. *)
  let lbl_map = Hashtbl.create 8 in
  let prog_label ir_l =
    match Hashtbl.find_opt lbl_map ir_l with
    | Some l -> l
    | None ->
      let l = Prog.fresh_label b in
      Hashtbl.replace lbl_map ir_l l;
      l
  in
  let bank_disp = 4 * Mmu.Tlb.bank_offset_words ~privileged in

  (* TB head: poll the interrupt line (paper Fig. 4). *)
  let irq_label = Prog.fresh_label b in
  Prog.emit b ~tag:X.Tag_irq_check (X.Count X.Cnt_irq_poll);
  Prog.emit b ~tag:X.Tag_irq_check
    (X.Alu { op = X.Cmp; dst = env_op Envspec.irq_pending; src = X.Imm 0 });
  Prog.emit b ~tag:X.Tag_irq_check (X.Jcc { cc = X.NE; target = irq_label });

  let emit_alu op dst a b_op =
    (* dst := a <op> b; allow dst = a in place, else move first. *)
    if dst = a then Prog.emit b (X.Alu { op; dst = X.Reg dst; src = b_op })
    else begin
      (match b_op with
      | X.Reg r when r = dst ->
        failwith "Backend: binop dst aliases second source"
      | _ -> ());
      Prog.emit b (X.Mov { width = X.W32; dst = X.Reg dst; src = X.Reg a });
      Prog.emit b (X.Alu { op; dst = X.Reg dst; src = b_op })
    end
  in
  let emit_shift op dst a amount =
    if dst <> a then Prog.emit b (X.Mov { width = X.W32; dst = X.Reg dst; src = X.Reg a });
    Prog.emit b (X.Shift { op; dst = X.Reg dst; amount })
  in

  (* Inline TLB probe, the access itself on a hit, and a slow-path
     stub (emitted after the body) for a miss. *)
  let emit_qemu_access ~addr ~width ~insn_pc ?value ?result access =
    Prog.emit b ~tag:X.Tag_mmu (X.Count X.Cnt_mmu_access);
    let slow = Prog.fresh_label b in
    let done_ = Prog.fresh_label b in
    let write = Option.is_some value in
    let ram =
      tlb_probe b ~addr ~set:mmu_s1 ~pa:mmu_s2 ~tmp:X.rcx ~bank:bank_disp ~write ~slow
    in
    Prog.emit b ~tag:X.Tag_mmu (access ram);
    Prog.emit b (X.Label done_);
    let helper = Helpers.mmu_helper ~store:write width in
    stubs := { label = slow; done_; addr; insn_pc; helper; value; result } :: !stubs
  in

  let lower_op op =
    match op with
    | Ir.Insn_start attr -> Prog.emit b (X.Count (X.Cnt_guest_insn attr))
    | Ir.Movi (d, v) ->
      Prog.emit b (X.Mov { width = X.W32; dst = X.Reg (host_of_temp d); src = X.Imm v })
    | Ir.Mov (d, s) ->
      Prog.emit b
        (X.Mov { width = X.W32; dst = X.Reg (host_of_temp d); src = X.Reg (host_of_temp s) })
    | Ir.Ld_env (d, slot) ->
      Prog.emit b (X.Mov { width = X.W32; dst = X.Reg (host_of_temp d); src = env_op slot })
    | Ir.St_env (slot, s) ->
      Prog.emit b (X.Mov { width = X.W32; dst = env_op slot; src = X.Reg (host_of_temp s) })
    | Ir.Sti_env (slot, v) ->
      Prog.emit b (X.Mov { width = X.W32; dst = env_op slot; src = X.Imm v })
    | Ir.Binop (bop, d, a, bb) -> (
      let d = host_of_temp d and a = host_of_temp a and bb = host_of_temp bb in
      match binop_to_x86 bop with
      | `Alu op -> emit_alu op d a (X.Reg bb)
      | `Mul ->
        if d <> a then Prog.emit b (X.Mov { width = X.W32; dst = X.Reg d; src = X.Reg a });
        Prog.emit b (X.Imul { dst = d; src = X.Reg bb })
      | `Shift op ->
        Prog.emit b (X.Mov { width = X.W32; dst = X.Reg X.rcx; src = X.Reg bb });
        emit_shift op d a X.Sh_cl)
    | Ir.Binopi (bop, d, a, v) -> (
      let d = host_of_temp d and a = host_of_temp a in
      match binop_to_x86 bop with
      | `Alu op -> emit_alu op d a (X.Imm v)
      | `Mul ->
        if d <> a then Prog.emit b (X.Mov { width = X.W32; dst = X.Reg d; src = X.Reg a });
        Prog.emit b (X.Imul { dst = d; src = X.Imm v })
      | `Shift op -> emit_shift op d a (X.Sh_imm (v land 31)))
    | Ir.Not (d, s) ->
      let d = host_of_temp d and s = host_of_temp s in
      if d <> s then Prog.emit b (X.Mov { width = X.W32; dst = X.Reg d; src = X.Reg s });
      Prog.emit b (X.Not (X.Reg d))
    | Ir.Setcond (c, d, a, bb) ->
      Prog.emit b
        (X.Alu { op = X.Cmp; dst = X.Reg (host_of_temp a); src = X.Reg (host_of_temp bb) });
      Prog.emit b (X.Setcc { cc = Ir.cmp_to_cc c; dst = host_of_temp d })
    | Ir.Setcondi (c, d, a, v) ->
      Prog.emit b (X.Alu { op = X.Cmp; dst = X.Reg (host_of_temp a); src = X.Imm v });
      Prog.emit b (X.Setcc { cc = Ir.cmp_to_cc c; dst = host_of_temp d })
    | Ir.Brcondi (c, a, v, l) ->
      Prog.emit b (X.Alu { op = X.Cmp; dst = X.Reg (host_of_temp a); src = X.Imm v });
      Prog.emit b (X.Jcc { cc = Ir.cmp_to_cc c; target = prog_label l })
    | Ir.Br l -> Prog.emit b (X.Jmp (prog_label l))
    | Ir.Set_label l -> Prog.emit b (X.Label (prog_label l))
    | Ir.Qemu_ld { dst; addr; width; insn_pc } ->
      let dst = host_of_temp dst in
      emit_qemu_access ~addr:(host_of_temp addr) ~width ~insn_pc ~result:dst
        (ram_load width ~dst)
    | Ir.Qemu_st { src; addr; width; insn_pc } ->
      let src = host_of_temp src in
      emit_qemu_access ~addr:(host_of_temp addr) ~width ~insn_pc ~value:src
        (fun ram -> ram_store width ram ~src)
    | Ir.Call { helper; args; ret } ->
      let arg_regs = [| Helpers.arg0_reg; Helpers.arg1_reg |] in
      List.iteri
        (fun i a ->
          Prog.emit b ~tag:X.Tag_glue
            (X.Mov { width = X.W32; dst = X.Reg arg_regs.(i); src = X.Reg (host_of_temp a) }))
        args;
      Prog.emit b ~tag:X.Tag_glue (X.Call_helper { id = helper });
      (match ret with
      | Some d ->
        Prog.emit b ~tag:X.Tag_glue
          (X.Mov { width = X.W32; dst = X.Reg (host_of_temp d); src = X.Reg X.rax })
      | None -> ())
    | Ir.Goto_tb { slot; target_pc } ->
      Prog.emit b ~tag:X.Tag_glue
        (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm target_pc });
      Prog.emit b ~tag:X.Tag_glue (X.Exit { slot })
    | Ir.Exit_indirect slot -> Prog.emit b ~tag:X.Tag_glue (X.Exit { slot })
  in
  List.iter lower_op ops;

  (* Stubs: softMMU slow paths, then the interrupt-exit stub. *)
  List.iter
    (fun { label; done_; addr; insn_pc; helper; value; result } ->
      let emit i = Prog.emit b ~tag:X.Tag_mmu i in
      Prog.emit b (X.Label label);
      emit (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm insn_pc });
      (* value first: it may alias the address argument register rdx *)
      Option.iter
        (fun v -> emit (X.Mov { width = X.W32; dst = X.Reg Helpers.arg1_reg; src = X.Reg v }))
        value;
      emit (X.Mov { width = X.W32; dst = X.Reg Helpers.arg0_reg; src = X.Reg addr });
      emit (X.Call_helper { id = helper });
      Option.iter
        (fun d -> emit (X.Mov { width = X.W32; dst = X.Reg d; src = X.Reg X.rax }))
        result;
      emit (X.Jmp done_))
    (List.rev !stubs);

  (* Interrupt exit stub: record the TB's own PC so delivery computes
     the right return address, then leave through the reserved slot. *)
  Prog.emit b (X.Label irq_label);
  Prog.emit b ~tag:X.Tag_irq_check
    (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm tb_pc });
  Prog.emit b ~tag:X.Tag_irq_check (X.Exit { slot = Tb.slot_irq })
