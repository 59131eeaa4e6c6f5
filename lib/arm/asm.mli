(** A small two-pass assembler: emit {!Insn.t} values and label
    references, then {!assemble} encodes everything to instruction
    words with branch offsets resolved. The mini guest OS and the
    workload generators are written against this module. *)

open Repro_common

type t

val create : ?origin:Word32.t -> unit -> t
(** [origin] is the load address of the first word (default 0). *)

val label : t -> string -> unit
(** Define [name] at the current address; raises on redefinition. *)

val lookup : t -> string -> Word32.t
(** Address of a defined label (after assembly or for already-defined
    labels). *)

val labels : t -> (Word32.t * string) list
(** All defined labels sorted by (address, name) — the symbol table
    for profiler symbolization; deterministic across runs. *)

val emit : t -> Insn.t -> unit
val word : t -> Word32.t -> unit
(** Emit a raw data word. *)

val branch_to : t -> ?cond:Cond.t -> ?link:bool -> string -> unit
(** Emit a [b]/[bl] to a label (forward references allowed). *)

val mov32 : t -> Insn.reg -> Word32.t -> unit
(** Load an arbitrary constant with [movw] (+ [movt] when needed). *)

val mov32_label : t -> Insn.reg -> string -> unit
(** Load a label's address (always movw+movt, resolved at assembly). *)

val assemble : t -> Word32.t * Word32.t array
(** Resolve fixups and encode; returns [(origin, words)]. Raises
    [Failure] on undefined labels. *)

val assemble_insns : t -> Word32.t * Insn.t array
(** Like {!assemble} but returns the resolved instruction stream
    (data words appear as decoded instructions or [Udf]); mainly for
    tests and disassembly listings. *)

(** {2 Instruction shorthands}

    Thin wrappers over {!Insn} constructors, all taking the builder
    first so kernel sources read top-to-bottom. *)

val mov : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> int -> unit
(** [mov t rd imm] with a modified-immediate operand (must encode). *)

val mov_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> unit
val add : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val add_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val sub : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val sub_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val rsb : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val and_ : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val and_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val orr : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val orr_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val eor_r : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val lsl_ : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val lsr_ : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> int -> unit
val cmp : t -> ?cond:Cond.t -> Insn.reg -> int -> unit
val cmp_r : t -> ?cond:Cond.t -> Insn.reg -> Insn.reg -> unit
val tst : t -> ?cond:Cond.t -> Insn.reg -> int -> unit
val mul : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val umull : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> Insn.reg -> unit
(** [umull t rdlo rdhi rm rn]. *)

val clz : t -> ?cond:Cond.t -> Insn.reg -> Insn.reg -> unit
(** [clz t rd rm] — count leading zeros. *)

val ldrs : t -> ?cond:Cond.t -> ?half:bool -> ?index:Insn.index_mode -> Insn.reg -> Insn.reg -> int -> unit
(** [ldrs t rd rn off] — LDRSB (or LDRSH with [~half:true]),
    immediate-offset form. *)

val smull : t -> ?cond:Cond.t -> ?s:bool -> Insn.reg -> Insn.reg -> Insn.reg -> Insn.reg -> unit
val ldr : t -> ?cond:Cond.t -> ?width:Insn.width -> ?index:Insn.index_mode -> Insn.reg -> Insn.reg -> int -> unit
(** [ldr t rd rn off] — immediate offset form. *)

val str : t -> ?cond:Cond.t -> ?width:Insn.width -> ?index:Insn.index_mode -> Insn.reg -> Insn.reg -> int -> unit
val push : t -> ?cond:Cond.t -> int -> unit
(** [push t mask] = [stmdb sp!, {mask}]. *)

val pop : t -> ?cond:Cond.t -> int -> unit
(** [pop t mask] = [ldmia sp!, {mask}]. *)

val bx : t -> ?cond:Cond.t -> Insn.reg -> unit
val svc : t -> ?cond:Cond.t -> int -> unit
val nop : t -> unit
val mrs : t -> ?spsr:bool -> Insn.reg -> unit
val msr : t -> ?spsr:bool -> ?flags:bool -> ?control:bool -> Insn.reg -> unit
val cps : t -> disable:bool -> unit
val mcr : t -> ?opc1:int -> crn:int -> ?crm:int -> ?opc2:int -> Insn.reg -> unit
val mrc : t -> ?opc1:int -> crn:int -> ?crm:int -> ?opc2:int -> Insn.reg -> unit
val vmsr : t -> Insn.reg -> unit
val vmrs : t -> Insn.reg -> unit
val udf : t -> int -> unit
val reg_mask : int list -> int
(** Register list to LDM/STM mask. *)
