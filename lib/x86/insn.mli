(** The host instruction model: an x86-64-flavoured register machine
    operating on 32-bit values.

    Both DBT backends emit this instruction set into translation
    blocks; the {!Exec} kernel executes it while counting
    dynamically executed instructions — the paper's performance
    metric. The register file has 16 GPRs (the paper's 32-bit host has
    8; see DESIGN.md for why we widen it), and EFLAGS carries
    CF/ZF/SF/OF.

    Memory operands address one of three segments: the guest-state
    [Env] structure (QEMU's [CPUARMState]), the guest physical [Ram],
    and the softMMU [Tlb] table — exactly the data structures QEMU's
    emitted code touches. *)

type reg = int
(** 0..15: rax rcx rdx rbx rsp rbp rsi rdi r8..r15. *)

val rax : reg
val rcx : reg
val rdx : reg
val rbx : reg
val rsp : reg
val rbp : reg
(** By convention [rbp] holds the env base pointer in emitted code. *)

val rsi : reg
val rdi : reg
val r8 : reg
val r9 : reg
val r10 : reg
val r11 : reg
val r12 : reg
val r13 : reg
val r14 : reg
val r15 : reg
val reg_name : reg -> string

type seg =
  | Env  (** guest CPU state structure; disp/computed = byte offset *)
  | Ram  (** guest physical memory *)
  | Tlb  (** softMMU TLB entries *)

type mem = { seg : seg; base : reg option; index : reg option; scale : int; disp : int }

val env_slot : int -> mem
(** [env_slot i] — direct access to 32-bit env slot [i]. *)

type operand = Reg of reg | Imm of int | Mem of mem

type alu_op = Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test

type shift_op = Shl | Shr | Sar | Ror

(** x86 condition codes over CF/ZF/SF/OF. *)
type cc = E | NE | B | AE | S | NS | O | NO | A | BE | GE | L | G | LE

val cc_name : cc -> string
val cc_negate : cc -> cc

type width = W8 | W16 | W32

(** One host instruction. [Label] is a zero-cost pseudo-op; branch
    targets are label ids local to the translation block. *)
type t =
  | Label of int
  | Mov of { width : width; dst : operand; src : operand }
  | Movzx8 of { dst : reg; src : operand }  (** byte load/reg zero-extended *)
  | Movzx16 of { dst : reg; src : operand }  (** halfword load/reg zero-extended *)
  | Movsx8 of { dst : reg; src : operand }  (** byte load/reg sign-extended *)
  | Movsx16 of { dst : reg; src : operand }  (** halfword load/reg sign-extended *)
  | Lea of { dst : reg; addr : mem }
  | Alu of { op : alu_op; dst : operand; src : operand }
  | Neg of operand
  | Not of operand
  | Imul of { dst : reg; src : operand }
  | Shift of { op : shift_op; dst : operand; amount : shift_amount }
  | Setcc of { cc : cc; dst : reg }  (** dst := 0/1, flags preserved *)
  | Cmovcc of { cc : cc; dst : reg; src : operand }
  | Jcc of { cc : cc; target : int }
  | Jmp of int
  | Savef of reg
      (** Pack EFLAGS into a register as ARM-layout NZCV in bits
          31..28 (lahf/seto-style, one-instruction model). *)
  | Loadf of reg
      (** Unpack an ARM-layout NZCV word into EFLAGS (N→SF, Z→ZF,
          C→CF, V→OF). *)
  | Call_helper of { id : int }
      (** Transfer to a QEMU helper. Arguments are in rdi/rsi/rdx/rcx,
          the result in rax. All registers except rbp/rsp are
          clobbered on return — the kernel deliberately poisons
          them so that missing CPU-state coordination is caught by
          differential tests, not hidden. *)
  | Exit of { slot : int }
      (** End of TB: give control back to the execution engine through
          exit slot [slot] (chainable). *)
  | Count of counter
      (** Zero-cost measurement marker bumping a dynamic counter; used
          for retired-guest-instruction and coordination-operation
          counts (the denominators/numerators of Figs. 15 and 17). *)

and shift_amount = Sh_imm of int | Sh_cl  (** count in CL (rcx & 31) *)

and counter =
  | Cnt_guest_insn of int
      (** retire one guest instruction; the argument is the packed
          coverage-attribution word (see {!Repro_covscope.Attr}):
          translation tier in the low bits, opcode class / idiom /
          rule id above. [Stats.retire] decodes it. *)
  | Cnt_sync_op
  | Cnt_mmu_access
  | Cnt_irq_poll

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Stats category an emitted instruction is charged to. The paper's
    Fig. 17 reports the [Sync] fraction; Fig. 15 the total. *)
type tag =
  | Tag_compute   (** translated guest computation *)
  | Tag_sync      (** CPU-state coordination (Sync-save/Sync-restore) *)
  | Tag_mmu       (** inline address-translation fast path *)
  | Tag_irq_check (** TB-head interrupt polling *)
  | Tag_glue      (** prologue/epilogue, chaining, condition re-eval *)

val tag_name : tag -> string

(** {2 Enumerations}

    Every constructor once; a codec writes a value as its position
    here. *)

val all_tags : tag list
val all_alu_ops : alu_op list
val all_shift_ops : shift_op list
