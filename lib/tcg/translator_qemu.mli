(** The QEMU-style baseline translator: decode a guest basic block at
    a PC, lift it through {!Frontend}, lower through {!Backend}. This
    is the system the paper's speedups are measured against. *)

open Repro_common

val fetch_block : ?cap:int -> Runtime.t -> pc:Word32.t -> Repro_arm.Insn.t list
(** Decode one guest basic block at [pc] under the current privilege:
    stops at branches, system-level TB enders, the length limit, page
    boundaries or undecodable words. [cap] overrides the length limit
    (used by the bailout ladder); it defaults to the runtime's
    [tb_override] or the baseline's block-length limit. Shared with the rule-based
    translator. *)

val emulate_one_tb : ?insn:Repro_arm.Insn.t -> Runtime.t -> Tb.Cache.t -> pc:Word32.t -> Tb.t
(** A TB that executes the single guest instruction at [pc] through
    the interpreter helper — the last rung of the bailout ladder, also
    covering undecodable words (which take their Undefined_insn
    exception inside the helper). [insn], when the caller already
    decoded the word, supplies the opcode class of the interpreter-tier
    coverage attribution; omitted, the retirement is charged to the
    undefined-instruction class. *)

val translate :
  Runtime.t -> Tb.Cache.t -> pc:Word32.t -> (Tb.t, Repro_arm.Mem.fault) result
(** Build a TB for the current privilege/MMU configuration. [Error]
    is a fetch fault on the first instruction (prefetch abort).
    Resource overflows ({!Tb.Tb_too_complex}) are retried internally
    with shorter blocks, bottoming out at {!emulate_one_tb} — the
    function never raises on guest-controlled input. *)
