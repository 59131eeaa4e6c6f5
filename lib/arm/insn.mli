(** Structured ARMv7 (A32) instructions — the guest ISA.

    The subset covers everything the mini guest OS and the workload
    generators need: the full data-processing family with condition
    codes and conditional execution, multiplies, single and multiple
    load/store with the three indexing modes, branches, PSR transfers,
    wide moves, and the system-level instructions that drive the
    paper's coordination scenarios ([svc], [cps], [mcr]/[mrc],
    [vmrs]/[vmsr]). Each constructor round-trips through
    {!Encode}/{!Decode}. *)

type reg = int
(** General register number, [0..15]. [13]=sp, [14]=lr, [15]=pc. *)

val sp : reg
val lr : reg
val pc : reg

val reg : int -> reg
(** Checked constructor; raises [Invalid_argument] outside [0..15]. *)

type dp_op =
  | AND | EOR | SUB | RSB | ADD | ADC | SBC | RSC
  | TST | TEQ | CMP | CMN | ORR | MOV | BIC | MVN

val dp_op_is_test : dp_op -> bool
(** [TST]/[TEQ]/[CMP]/[CMN]: no destination, always set flags. *)

val dp_op_to_string : dp_op -> string
val dp_op_code : dp_op -> int
val dp_op_of_code : int -> dp_op

type shift_kind = LSL | LSR | ASR | ROR

val shift_kind_code : shift_kind -> int
val shift_kind_of_code : int -> shift_kind
val shift_kind_to_string : shift_kind -> string

type operand2 =
  | Imm of { imm8 : int; rot : int }
      (** [imm8] rotated right by [2*rot]; the canonical A32 modified
          immediate. *)
  | Reg_shift_imm of { rm : reg; kind : shift_kind; amount : int }
      (** [amount] in [0..31]; [LSR/ASR] with amount 0 encode 32 in
          real ARM — we restrict to the 0..31 semantics and never emit
          the 32 forms. *)
  | Reg_shift_reg of { rm : reg; kind : shift_kind; rs : reg }

val imm_operand : int -> operand2 option
(** Express a word as a modified immediate if possible. *)

val imm_operand_exn : int -> operand2
val operand2_value : operand2 -> (reg -> int) -> carry:bool -> int * bool
(** Evaluate an operand2 under a register valuation; returns the value
    and the shifter carry-out. *)

val operand2_word : ('env -> reg -> int) -> 'env -> operand2 -> int
(** The value half of {!operand2_value}, reading register [r] as
    [read env r]: with a top-level [read] it allocates nothing. *)

val shift_value : shift_kind -> Repro_common.Word32.t -> int -> Repro_common.Word32.t
(** [shift_value kind value amount]: the value half of operand
    evaluation for a shift by an effective [amount] (which may exceed
    31), without building a pair. *)

type width = Word | Byte | Half

type index_mode =
  | Offset        (** [\[rn, off\]] — no writeback *)
  | Pre_indexed   (** [\[rn, off\]!] *)
  | Post_indexed  (** [\[rn\], off] *)

type mem_offset =
  | Imm_off of int  (** signed, [-4095..4095] *)
  | Reg_off of { rm : reg; kind : shift_kind; amount : int; subtract : bool }

type ldm_kind = IA | DB
(** Increment-after / decrement-before (the two forms the kernel uses
    for stack push/pop). *)

type op =
  | Dp of { op : dp_op; s : bool; rd : reg; rn : reg; op2 : operand2 }
  | Mul of { s : bool; rd : reg; rn : reg; rm : reg; acc : reg option }
      (** [Mul]: [rd := rm * rn (+ acc)]; [acc = Some ra] is MLA. *)
  | Mull of { signed : bool; s : bool; rdlo : reg; rdhi : reg; rn : reg; rm : reg }
  | Clz of { rd : reg; rm : reg }
      (** UMULL/SMULL: [rdhi:rdlo := rm * rn] (64-bit product). *)
  | Ldr of { width : width; rd : reg; rn : reg; off : mem_offset; index : index_mode }
  | Ldrs of { half : bool; rd : reg; rn : reg; off : mem_offset; index : index_mode }
      (** LDRSB ([half = false]) / LDRSH ([half = true]): sign-extending
          loads from the miscellaneous-loads encoding; same offset
          constraints as halfword transfers. *)
  | Str of { width : width; rd : reg; rn : reg; off : mem_offset; index : index_mode }
  | Ldm of { kind : ldm_kind; rn : reg; writeback : bool; regs : int }
      (** [regs] is the 16-bit register mask. *)
  | Stm of { kind : ldm_kind; rn : reg; writeback : bool; regs : int }
  | B of { link : bool; offset : int }
      (** [offset] in instructions (words), relative to PC+8. *)
  | Bx of reg
  | Movw of { rd : reg; imm16 : int }
  | Movt of { rd : reg; imm16 : int }
  | Mrs of { rd : reg; spsr : bool }
  | Msr of { spsr : bool; write_flags : bool; write_control : bool; rm : reg }
  | Svc of int
  | Cps of { disable : bool }
      (** [cpsid i] / [cpsie i] — mask or unmask IRQs. *)
  | Mcr of { opc1 : int; rt : reg; crn : int; crm : int; opc2 : int }
      (** Coprocessor 15 (system control) writes. *)
  | Mrc of { opc1 : int; rt : reg; crn : int; crm : int; opc2 : int }
  | Vmsr of { rt : reg }  (** FPSCR := Rt (the paper's running example). *)
  | Vmrs of { rt : reg }  (** Rt := FPSCR; [rt = 15] sets the APSR flags. *)
  | Nop
  | Udf of int  (** permanently undefined — traps to the guest OS. *)

type t = { cond : Cond.t; op : op }

val make : ?cond:Cond.t -> op -> t
(** [cond] defaults to [AL]. *)

val is_system_level : t -> bool
(** Instructions emulated by a QEMU helper (privileged / coprocessor /
    PSR transfers / svc / cps) — the paper's "system-level" class. *)

val is_memory_access : t -> bool
(** Single or multiple load/store — goes through the softMMU. *)

val writes_flags : t -> bool
(** Updates NZCV (S-bit data processing, test ops, [vmrs apsr], [msr
    cpsr_f]). *)

val reads_flags : t -> bool
(** Conditional execution or flag-consuming ops ([adc]/[sbc]/[rsc]). *)

val defs : t -> int
(** Bitmask of general registers written (PC = bit 15). *)

val uses : t -> int
(** Bitmask of general registers read. *)

val popcount : int -> int
(** Registers in a 16-bit register mask. *)

val is_branch : t -> bool
(** Direct/indirect branches and any PC write. *)

(** {2 Coverage classes}

    The opcode-class enumeration of the translation-quality
    observatory (Repro_covscope). Classes are derived from the one
    {!op} enumeration: {!classify} matches every constructor
    explicitly, so a new decoder variant without a coverage class is a
    compile error — the coverage matrix can never silently drift. *)

type cls =
  | C_dp of dp_op  (** one class per data-processing opcode *)
  | C_mul
  | C_mull
  | C_clz
  | C_ldr
  | C_ldrs
  | C_str
  | C_ldm
  | C_stm
  | C_b
  | C_bx
  | C_movw
  | C_movt
  | C_mrs
  | C_msr
  | C_svc
  | C_cps
  | C_mcr
  | C_mrc
  | C_vmsr
  | C_vmrs
  | C_nop
  | C_udf

val classify : t -> cls
val all_classes : cls list
(** Every class once, in {!cls_index} order. *)

val n_classes : int

val cls_index : cls -> int
(** Dense index in [0, n_classes): dp opcodes first (in
    {!dp_op_code} order), then the other classes. *)

val cls_of_index : int -> cls
(** Inverse of {!cls_index}; raises [Invalid_argument] out of range. *)

val cls_name : cls -> string
(** Stable report key, e.g. ["dp.add"], ["ldr"]. *)

val idiom_of : t -> int
(** Within-class shape refinement in [0, n_idioms): operand form,
    index mode, S bit — bit 3 ({!idiom_conditional}) marks
    conditional execution for every class. *)

val idiom_conditional : int
val n_idioms : int

val idiom_name : cls -> int -> string
(** Render an idiom under its class, e.g. ["shift.s"], ["pre.reg"],
    ["imm.cond"]. *)

val pp : Format.formatter -> t -> unit
(** Assembly-like rendering, e.g. [addeq r0, r1, #4]. *)

val to_string : t -> string
val equal : t -> t -> bool
