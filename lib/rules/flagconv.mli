(** Flag conventions: how guest (ARM) condition state is encoded in
    host EFLAGS at a given emission point.

    After a host [subl]/[cmpl], CF is the borrow — the {e negation} of
    ARM's C; after [addl], CF {e is} ARM's C; after a host logical op,
    CF = OF = 0, which (under the model's host-aligned logical-flags
    semantics) equals the guest state exactly. The rule engine tracks
    the active convention and maps each ARM condition to a host [cc],
    falling back to materializing the canonical form when no single
    host condition exists (e.g. HI after an add). [Canonical] is the
    convention installed by a Sync-restore: SF=N, ZF=Z, OF=V and
    CF=¬C, chosen because it makes all 14 conditions expressible. *)

type t = Add_like | Sub_like | Logic_like | Canonical

val all : t list
(** Every convention once; a codec writes one as its position here. *)

type cond_eval =
  | Cc of Repro_x86.Insn.cc
  | Always
  | Never
  | Needs_materialize
      (** no single host cc exists under this convention; re-install
          {!Canonical} first *)

val eval : t -> Repro_arm.Cond.t -> cond_eval

val carry_inverted : t -> bool
(** CF = ¬C under this convention (true for [Sub_like]/[Canonical]). *)

val name : t -> string
val pp : Format.formatter -> t -> unit
