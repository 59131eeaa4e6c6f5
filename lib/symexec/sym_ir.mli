(** Symbolic evaluation of TCG IR ({!Repro_tcg.Ir}): the guest side of
    rule verification.

    The verifier lowers a guest fragment through the baseline frontend
    ({!Repro_tcg.Frontend}) and evaluates the ops here, so the ARM
    semantics a rule is checked against are the ones QEMU mode
    executes, not a third copy. Env slots [r0]..[r14] start as
    [Var "r0"].."Var "r14""; the parsed flag slots start as
    [Var "n"|"z"|"c"|"v"] (0/1 terms). A forward [Brcondi] to a later
    [Set_label] (a condition guard) merges both paths with {!Term.ite}.

    Memory ([Qemu_ld]/[Qemu_st]), helper calls, block exits and other
    env slots are out of scope ([Unsupported]): the rule learner only
    extracts computational fragments. *)

type state = {
  regs : Term.t array;  (** 15 entries: [r0]..[r14] *)
  n : Term.t;
  z : Term.t;
  c : Term.t;
  v : Term.t;
}

exception Unsupported of string

val exec : Repro_tcg.Ir.t list -> state
(** Evaluate a lowered sequence from the initial state. [Insn_start]
    markers and writes to [ccr_tag] are ignored. Raises
    {!Unsupported}. *)
