(** IR → host lowering (QEMU's TCG backend).

    Temps map onto a fixed pool of host registers (per-guest-insn
    lifetimes keep the pool small); rcx is reserved for variable shift
    counts and r14/r15 for the inline softMMU fast path. [Qemu_ld]/
    [Qemu_st] lower to the TLB probe + slow-path helper sequence, the
    cost signature the paper attributes ≈20 host instructions per
    system-mode memory access to. *)

val tlb_probe :
  Repro_x86.Prog.builder ->
  addr:Repro_x86.Insn.reg ->
  set:Repro_x86.Insn.reg ->
  pa:Repro_x86.Insn.reg ->
  tmp:Repro_x86.Insn.reg ->
  bank:int ->
  write:bool ->
  slow:int ->
  Repro_x86.Insn.operand
(** [tlb_probe b ~addr ~set ~pa ~tmp ~bank ~write ~slow] emits the
    inline softMMU TLB probe for the guest virtual address in [addr]:
    the set index into [set], the page tag compare against the set's
    read tag (or its write tag when [write]) in the TLB bank at byte
    offset [bank], a jump to label [slow] on a miss and, on a hit, the
    host physical address into [pa] (via [tmp]). Returns the RAM
    operand at that address, for the access itself. [tmp] may equal
    [set]; [addr] is left intact. Every instruction is [Tag_mmu].
    This is the only code that emits the probe: the TCG backend and
    the rule emitter's inline fast path (the [future] preset) share it. *)

val ram_load :
  Ir.width -> dst:Repro_x86.Insn.reg -> Repro_x86.Insn.operand -> Repro_x86.Insn.t
(** The zero-extending load of an access width from a RAM operand. *)

val ram_store :
  Ir.width -> Repro_x86.Insn.operand -> src:Repro_x86.Insn.reg -> Repro_x86.Insn.t
(** The store of an access width's low bits of [src] to a RAM operand. *)

val lower :
  Repro_x86.Prog.builder ->
  privileged:bool ->
  tb_pc:Repro_common.Word32.t ->
  Ir.t list ->
  unit
(** Append the lowered code for a TB body. Emits the TB-head interrupt
    check (exit slot {!Tb.slot_irq}) and, at the end, the pending
    slow-path and interrupt stubs. *)
