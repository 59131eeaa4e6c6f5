(** Full-system ARM CPU state: current register view, CPSR/SPSR with
    mode banking of sp/lr, and the system registers the mini guest OS
    touches (cp15 control/translation-table/fault registers, FPSCR).

    This is the architectural reference state used by the interpreter;
    the DBT engines keep their own flattened [env] layout and convert
    through {!to_snapshot}/{!of_snapshot} for differential testing. *)

open Repro_common

type mode = User | System | Supervisor | Irq | Abort | Undef

val mode_bits : mode -> int
(** CPSR[4:0] encoding (User = 0b10000, ... System = 0b11111). *)

val mode_of_bits : int -> mode option
val mode_is_privileged : mode -> bool
val pp_mode : Format.formatter -> mode -> unit

type t

val create : unit -> t
(** Reset state: Supervisor mode, IRQs masked, PC = 0, MMU off. *)

(** {2 General registers (current banked view)} *)

val get_reg : t -> int -> Word32.t
val set_reg : t -> int -> Word32.t -> unit
val get_pc : t -> Word32.t
val set_pc : t -> Word32.t -> unit

(** {2 Status registers} *)

val get_flags : t -> Cond.flags
val set_flags : t -> Cond.flags -> unit

val set_nzcv : t -> Word32.t -> unit
(** Write CPSR bits 31..28 from the same bits of the word; the rest of
    the word is ignored. *)

val get_cpsr : t -> Word32.t
val set_cpsr : t -> Word32.t -> unit
(** Full write, including mode change (rebanks sp/lr). *)

val get_spsr : t -> Word32.t
(** SPSR of the current mode; reads as 0 in User/System. *)

val set_spsr : t -> Word32.t -> unit
val mode : t -> mode
val irq_masked : t -> bool
(** CPSR.I — true when IRQs are disabled. *)

val set_irq_masked : t -> bool -> unit

(** {2 System registers} *)

val get_ttbr : t -> Word32.t
val set_ttbr : t -> Word32.t -> unit
val mmu_enabled : t -> bool
val set_mmu_enabled : t -> bool -> unit
val get_dfar : t -> Word32.t
val set_dfar : t -> Word32.t -> unit
val get_dfsr : t -> Word32.t
val set_dfsr : t -> Word32.t -> unit
val get_fpscr : t -> Word32.t
val set_fpscr : t -> Word32.t -> unit
val bump_tlb_flush : t -> unit

(** {2 Exceptions} *)

type exn_kind = Reset | Undefined_insn | Supervisor_call | Prefetch_abort | Data_abort | Irq

val vector_of : exn_kind -> Word32.t

val take_exception : t -> exn_kind -> pc_of_faulting_insn:Word32.t -> unit
(** Architectural exception entry: bank SPSR := CPSR, LR_new := the
    per-kind preferred return address, switch mode, mask IRQs, PC :=
    vector. *)

(** {2 Full-machine serialization} *)

val save_words_len : int
(** Length of the {!save_words} dump (currently 38 words). *)

val save_words : t -> Word32.t array
(** Raw dump of the complete architectural state — current register
    view, CPSR, every sp/lr/SPSR bank, cp15 registers, FPSCR and the
    TLB-maintenance counter. Restoring with {!load_words} is bit-exact
    in any mode (unlike {!snapshot}, which only captures the current
    banked view for differential testing). *)

val load_words : t -> Word32.t array -> unit
(** Restore a {!save_words} dump in place. Raises [Invalid_argument]
    on length mismatch. *)

(** {2 Snapshots (for differential testing)} *)

type snapshot = {
  regs : Word32.t array;  (** 16 entries, current view *)
  cpsr : Word32.t;
  spsr : Word32.t;
  ttbr : Word32.t;
  sctlr_m : bool;
  fpscr : Word32.t;
}

val to_snapshot : t -> snapshot
val of_snapshot : snapshot -> t
val pp_snapshot : Format.formatter -> snapshot -> unit
