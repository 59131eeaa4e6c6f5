(** Semantic verification of a candidate fragment pair — the learning
    pipeline's "formal semantic-equivalence verification" step.

    Both fragments are evaluated symbolically from a shared initial
    state (pinned host registers seeded with the corresponding guest
    registers). The guest fragment is first lowered by the TCG frontend
    ({!Repro_tcg.Frontend}), so it is checked against the semantics QEMU
    mode executes ({!Repro_symexec.Sym_ir}). The pair verifies when every guest register the
    fragment defines matches the pinned host register, every other
    pinned register is untouched, and the final flag states correspond
    under one of the three host conventions. Equivalence is
    normalization-based with a randomized fallback ({!Repro_symexec.Equiv}). *)

type flag_finding =
  | F_none of { host_clobbers : bool }
  | F_writes of Repro_rules.Flagconv.t

type verified = {
  flags : flag_finding;
  carry_in : [ `Direct | `Inverted ] option;
  strength : Repro_symexec.Equiv.verdict;  (** weakest verdict used *)
}

val check :
  guest:Repro_arm.Insn.t list -> host:Repro_x86.Insn.t list -> (verified, string) result
