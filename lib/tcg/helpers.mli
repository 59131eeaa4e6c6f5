(** QEMU's helper functions — the C side that emitted code calls into.

    Two families:
    - the softMMU access helpers ([mmu_load_*]/[mmu_store_*]): full
      address translation in "C" (TLB lookup, page walk + fill on
      miss, MMIO dispatch, data aborts);
    - [interp_one]: emulate exactly one guest instruction at env.pc on
      the architectural mirror — QEMU's catch-all used by the baseline
      for system-level instructions and by the rule-based engine for
      every instruction outside its rule set.

    Every helper charges its modelled cost to the stats and, being
    QEMU code, leaves all host registers (except rbp/rsp) clobbered —
    see {!Repro_x86.Exec}. *)

val arg0_reg : Repro_x86.Insn.reg
(** First helper argument register (rdx — see implementation note). *)

val arg1_reg : Repro_x86.Insn.reg

val h_interp_one : int
val h_mmu_load_w : int
val h_mmu_load_b : int
val h_mmu_store_w : int
val h_mmu_store_b : int
val h_mmu_load_h : int
val h_mmu_store_h : int

val mmu_helper : store:bool -> Repro_arm.Insn.width -> int
(** The softMMU load ([store = false]) or store helper for an access
    width. *)

val install : Runtime.t -> unit
(** Install the dispatcher into the execution context. *)

val mmu_access_cost_estimate : unit -> int
(** Rough per-access helper cost at a TLB hit (for documentation and
    bench labelling). *)
