(** The QEMU-style intermediate representation.

    The baseline is a faithful two-step translator: ARM guest
    instructions are lifted to these IR ops ({!Frontend}) and the ops
    are lowered to host code ({!Backend}) — the "many-to-many"
    structure whose n×m expansion the learned rules bypass. Temps are
    virtual registers with per-guest-instruction lifetimes. *)

type temp = int

type cmp = Eq | Ne | Ltu | Geu | Lts | Ges

val cmp_to_cc : cmp -> Repro_x86.Insn.cc

type binop = Add | Sub | And | Or | Xor | Mul | Shl | Shr | Sar | Ror

type width = Repro_arm.Insn.width = Word | Byte | Half

type t =
  | Insn_start of int
      (** retired-guest-instruction marker (zero-cost Count); the
          argument is the packed coverage-attribution word the marker
          lowers to (see [Repro_covscope.Attr]) *)
  | Movi of temp * int
  | Mov of temp * temp
  | Ld_env of temp * int        (** temp := env slot *)
  | St_env of int * temp
  | Sti_env of int * int        (** env slot := constant *)
  | Binop of binop * temp * temp * temp  (** dst, a, b *)
  | Binopi of binop * temp * temp * int
  | Not of temp * temp
  | Setcond of cmp * temp * temp * temp  (** dst := a <cmp> b ? 1 : 0 *)
  | Setcondi of cmp * temp * temp * int
  | Brcondi of cmp * temp * int * int    (** if (a <cmp> const) goto label *)
  | Br of int
  | Set_label of int
  | Qemu_ld of { dst : temp; addr : temp; width : width; insn_pc : int }
      (** softMMU load: inline TLB fast path + slow-path helper.
          [insn_pc] is stored to env before the slow call so a fault
          reports the right guest PC. *)
  | Qemu_st of { src : temp; addr : temp; width : width; insn_pc : int }
  | Call of { helper : int; args : temp list; ret : temp option }
  | Goto_tb of { slot : int; target_pc : int }   (** chainable direct exit *)
  | Exit_indirect of int  (** slot; guest PC already stored to env *)

val pp : Format.formatter -> t -> unit
