type reg = int

let rax = 0
let rcx = 1
let rdx = 2
let rbx = 3
let rsp = 4
let rbp = 5
let rsi = 6
let rdi = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

let reg_name r =
  match r with
  | 0 -> "rax"
  | 1 -> "rcx"
  | 2 -> "rdx"
  | 3 -> "rbx"
  | 4 -> "rsp"
  | 5 -> "rbp"
  | 6 -> "rsi"
  | 7 -> "rdi"
  | n -> Printf.sprintf "r%d" n

type seg = Env | Ram | Tlb

let seg_name = function Env -> "env" | Ram -> "ram" | Tlb -> "tlb"

type mem = { seg : seg; base : reg option; index : reg option; scale : int; disp : int }

let env_slot i = { seg = Env; base = None; index = None; scale = 1; disp = 4 * i }

type operand = Reg of reg | Imm of int | Mem of mem
type alu_op = Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test
type shift_op = Shl | Shr | Sar | Ror
type cc = E | NE | B | AE | S | NS | O | NO | A | BE | GE | L | G | LE

let cc_name = function
  | E -> "e"
  | NE -> "ne"
  | B -> "b"
  | AE -> "ae"
  | S -> "s"
  | NS -> "ns"
  | O -> "o"
  | NO -> "no"
  | A -> "a"
  | BE -> "be"
  | GE -> "ge"
  | L -> "l"
  | G -> "g"
  | LE -> "le"

let cc_negate = function
  | E -> NE
  | NE -> E
  | B -> AE
  | AE -> B
  | S -> NS
  | NS -> S
  | O -> NO
  | NO -> O
  | A -> BE
  | BE -> A
  | GE -> L
  | L -> GE
  | G -> LE
  | LE -> G

type width = W8 | W16 | W32

type t =
  | Label of int
  | Mov of { width : width; dst : operand; src : operand }
  | Movzx8 of { dst : reg; src : operand }
  | Movzx16 of { dst : reg; src : operand }
  | Movsx8 of { dst : reg; src : operand }
  | Movsx16 of { dst : reg; src : operand }
  | Lea of { dst : reg; addr : mem }
  | Alu of { op : alu_op; dst : operand; src : operand }
  | Neg of operand
  | Not of operand
  | Imul of { dst : reg; src : operand }
  | Shift of { op : shift_op; dst : operand; amount : shift_amount }
  | Setcc of { cc : cc; dst : reg }
  | Cmovcc of { cc : cc; dst : reg; src : operand }
  | Jcc of { cc : cc; target : int }
  | Jmp of int
  | Savef of reg
  | Loadf of reg
  | Call_helper of { id : int }
  | Exit of { slot : int }
  | Count of counter

and shift_amount = Sh_imm of int | Sh_cl

and counter =
  | Cnt_guest_insn of int
      (** retire one guest instruction; the argument is the packed
          coverage-attribution word (see {!Repro_covscope.Attr}):
          translation tier in the low bits, opcode class / idiom /
          rule id above. [Stats.retire] decodes it. *)
  | Cnt_sync_op
  | Cnt_mmu_access
  | Cnt_irq_poll

let alu_name = function
  | Add -> "add"
  | Adc -> "adc"
  | Sub -> "sub"
  | Sbb -> "sbb"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Cmp -> "cmp"
  | Test -> "test"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar" | Ror -> "ror"

let pp_mem ppf { seg; base; index; scale; disp } =
  let parts = ref [] in
  (match index with
  | Some i ->
    parts := (if scale = 1 then reg_name i else Printf.sprintf "%s*%d" (reg_name i) scale) :: !parts
  | None -> ());
  (match base with Some b -> parts := reg_name b :: !parts | None -> ());
  let inner = String.concat " + " !parts in
  if inner = "" then Format.fprintf ppf "%s:[%#x]" (seg_name seg) disp
  else if disp = 0 then Format.fprintf ppf "%s:[%s]" (seg_name seg) inner
  else Format.fprintf ppf "%s:[%s %+d]" (seg_name seg) inner disp

let pp_operand ppf = function
  | Reg r -> Format.pp_print_string ppf (reg_name r)
  | Imm n -> Format.fprintf ppf "$%#x" (n land 0xFFFFFFFF)
  | Mem m -> pp_mem ppf m

let pp ppf = function
  | Label n -> Format.fprintf ppf ".L%d:" n
  | Mov { width; dst; src } ->
    Format.fprintf ppf "mov%s %a, %a"
      (match width with W8 -> "b" | W16 -> "w" | W32 -> "l")
      pp_operand dst pp_operand src
  | Movzx8 { dst; src } ->
    Format.fprintf ppf "movzxb %s, %a" (reg_name dst) pp_operand src
  | Movzx16 { dst; src } ->
    Format.fprintf ppf "movzxw %s, %a" (reg_name dst) pp_operand src
  | Movsx8 { dst; src } ->
    Format.fprintf ppf "movsxb %s, %a" (reg_name dst) pp_operand src
  | Movsx16 { dst; src } ->
    Format.fprintf ppf "movsxw %s, %a" (reg_name dst) pp_operand src
  | Lea { dst; addr } -> Format.fprintf ppf "lea %s, %a" (reg_name dst) pp_mem addr
  | Alu { op; dst; src } ->
    Format.fprintf ppf "%sl %a, %a" (alu_name op) pp_operand dst pp_operand src
  | Neg o -> Format.fprintf ppf "negl %a" pp_operand o
  | Not o -> Format.fprintf ppf "notl %a" pp_operand o
  | Imul { dst; src } -> Format.fprintf ppf "imull %s, %a" (reg_name dst) pp_operand src
  | Shift { op; dst; amount } ->
    Format.fprintf ppf "%sl %a, %s" (shift_name op) pp_operand dst
      (match amount with Sh_imm n -> Printf.sprintf "$%d" n | Sh_cl -> "cl")
  | Setcc { cc; dst } -> Format.fprintf ppf "set%s %s" (cc_name cc) (reg_name dst)
  | Cmovcc { cc; dst; src } ->
    Format.fprintf ppf "cmov%s %s, %a" (cc_name cc) (reg_name dst) pp_operand src
  | Jcc { cc; target } -> Format.fprintf ppf "j%s .L%d" (cc_name cc) target
  | Jmp target -> Format.fprintf ppf "jmp .L%d" target
  | Savef r -> Format.fprintf ppf "savef %s" (reg_name r)
  | Loadf r -> Format.fprintf ppf "loadf %s" (reg_name r)
  | Call_helper { id } -> Format.fprintf ppf "call helper_%d" id
  | Exit { slot } -> Format.fprintf ppf "exit %d" slot
  | Count c ->
    Format.fprintf ppf "#count %s"
      (match c with
      | Cnt_guest_insn attr -> Printf.sprintf "guest_insn %d" attr
      | Cnt_sync_op -> "sync_op"
      | Cnt_mmu_access -> "mmu_access"
      | Cnt_irq_poll -> "irq_poll")

let to_string t = Format.asprintf "%a" pp t

type tag = Tag_compute | Tag_sync | Tag_mmu | Tag_irq_check | Tag_glue

let tag_name = function
  | Tag_compute -> "compute"
  | Tag_sync -> "sync"
  | Tag_mmu -> "mmu"
  | Tag_irq_check -> "irq_check"
  | Tag_glue -> "glue"

let all_tags = [ Tag_compute; Tag_sync; Tag_mmu; Tag_irq_check; Tag_glue ]
let all_alu_ops = [ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ]
let all_shift_ops = [ Shl; Shr; Sar; Ror ]
