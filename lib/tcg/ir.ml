type temp = int
type cmp = Eq | Ne | Ltu | Geu | Lts | Ges

let cmp_to_cc : cmp -> Repro_x86.Insn.cc = function
  | Eq -> Repro_x86.Insn.E
  | Ne -> Repro_x86.Insn.NE
  | Ltu -> Repro_x86.Insn.B
  | Geu -> Repro_x86.Insn.AE
  | Lts -> Repro_x86.Insn.L
  | Ges -> Repro_x86.Insn.GE

type binop = Add | Sub | And | Or | Xor | Mul | Shl | Shr | Sar | Ror
type width = Repro_arm.Insn.width = Word | Byte | Half

type t =
  | Insn_start of int
  | Movi of temp * int
  | Mov of temp * temp
  | Ld_env of temp * int
  | St_env of int * temp
  | Sti_env of int * int
  | Binop of binop * temp * temp * temp
  | Binopi of binop * temp * temp * int
  | Not of temp * temp
  | Setcond of cmp * temp * temp * temp
  | Setcondi of cmp * temp * temp * int
  | Brcondi of cmp * temp * int * int
  | Br of int
  | Set_label of int
  | Qemu_ld of { dst : temp; addr : temp; width : width; insn_pc : int }
  | Qemu_st of { src : temp; addr : temp; width : width; insn_pc : int }
  | Call of { helper : int; args : temp list; ret : temp option }
  | Goto_tb of { slot : int; target_pc : int }
  | Exit_indirect of int

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Mul -> "mul"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Ror -> "ror"

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Ltu -> "ltu"
  | Geu -> "geu"
  | Lts -> "lt"
  | Ges -> "ge"

let pp ppf = function
  | Insn_start attr -> Format.fprintf ppf "-- insn (attr %d) --" attr
  | Movi (d, v) -> Format.fprintf ppf "t%d = %#x" d v
  | Mov (d, s) -> Format.fprintf ppf "t%d = t%d" d s
  | Ld_env (d, slot) -> Format.fprintf ppf "t%d = env[%d]" d slot
  | St_env (slot, s) -> Format.fprintf ppf "env[%d] = t%d" slot s
  | Sti_env (slot, v) -> Format.fprintf ppf "env[%d] = %#x" slot v
  | Binop (op, d, a, b) -> Format.fprintf ppf "t%d = %s t%d, t%d" d (binop_name op) a b
  | Binopi (op, d, a, v) -> Format.fprintf ppf "t%d = %s t%d, %#x" d (binop_name op) a v
  | Not (d, s) -> Format.fprintf ppf "t%d = not t%d" d s
  | Setcond (c, d, a, b) ->
    Format.fprintf ppf "t%d = setcond_%s t%d, t%d" d (cmp_name c) a b
  | Setcondi (c, d, a, v) ->
    Format.fprintf ppf "t%d = setcond_%s t%d, %#x" d (cmp_name c) a v
  | Brcondi (c, a, v, l) ->
    Format.fprintf ppf "brcond_%s t%d, %#x -> L%d" (cmp_name c) a v l
  | Br l -> Format.fprintf ppf "br L%d" l
  | Set_label l -> Format.fprintf ppf "L%d:" l
  | Qemu_ld { dst; addr; width; _ } ->
    Format.fprintf ppf "t%d = qemu_ld%s [t%d]" dst
      (match width with Byte -> "8" | Half -> "16" | Word -> "32")
      addr
  | Qemu_st { src; addr; width; _ } ->
    Format.fprintf ppf "qemu_st%s [t%d] = t%d"
      (match width with Byte -> "8" | Half -> "16" | Word -> "32")
      addr src
  | Call { helper; args; ret } ->
    Format.fprintf ppf "%scall h%d(%s)"
      (match ret with Some t -> Printf.sprintf "t%d = " t | None -> "")
      helper
      (String.concat ", " (List.map (Printf.sprintf "t%d") args))
  | Goto_tb { slot; target_pc } ->
    Format.fprintf ppf "goto_tb %d (pc=%#x)" slot target_pc
  | Exit_indirect s -> Format.fprintf ppf "exit_indirect (slot %d)" s
