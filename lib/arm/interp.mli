(** Reference interpreter for the ARM subset.

    This is the architectural ground truth: the TCG baseline and the
    rule-based translator are both differentially tested against it,
    and the rule learner's symbolic verifier is cross-checked with it
    on concrete values. It implements full-system semantics — modes,
    exception entry, conditional execution, the PC+8 pipeline view —
    over an abstract {!Mem.iface}. *)

type step_result =
  | Stepped
      (** Instruction retired normally (including a failed condition). *)
  | Took_exception of Cpu.exn_kind
      (** An exception was taken; the CPU is already at the vector. *)
  | Decode_error of string
      (** Fetched word is outside the modelled subset (test aid; real
          guests never reach this because Udf decodes fine). *)

val step : Decode_cache.t -> Cpu.t -> Mem.iface -> irq:bool -> step_result
(** Execute one instruction at the current PC, decoding its word
    through the machine's cache. [irq] is the level of the external
    interrupt line; it is taken (when unmasked) before fetching. A
    {!Mem.Fault} from the fetch becomes a prefetch abort, one from the
    instruction's own access a data abort (the instruction has then
    changed no register). A step that takes no exception allocates
    nothing once its word is in the cache. *)

val execute_insn : Cpu.t -> Mem.iface -> Insn.t -> step_result
(** Execute an already-decoded instruction at the current PC (used by
    TB-level differential tests and by the symbolic verifier's
    concrete cross-check). Advances PC and takes aborts like {!step}. *)
