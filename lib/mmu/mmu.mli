(** Guest memory management: two-level page tables, the softMMU TLB
    shared between the execution engines, and the reference-machine
    memory interface.

    Page-table format (simplified two-level, documented in DESIGN.md):
    TTBR points to a 4 KiB-aligned L1 table of 1024 word entries
    indexed by [va\[31:22\]]; a valid L1 entry (bit 0) holds the L2
    table base in bits 31:12. L2 entries, indexed by [va\[21:12\]],
    hold the physical page in bits 31:12 plus VALID (bit 0), WRITABLE
    (bit 1) and USER (bit 2) permission bits. *)

open Repro_common

val page_size : int
val page_mask : int
(** 0xFFFFF000. *)

(** {2 Page-table entries} *)

val l1_entry : l2_base:Word32.t -> Word32.t
val l2_entry : pa:Word32.t -> writable:bool -> user:bool -> Word32.t

type entry = Word32.t
(** A valid L2 descriptor, as {!l2_entry} builds it. *)

val page_pa : entry -> Word32.t
val writable : entry -> bool
val user : entry -> bool

val walk :
  Repro_machine.Bus.t -> ttbr:Word32.t -> access:Repro_arm.Mem.access -> Word32.t -> entry
(** Translate the page containing a virtual address. Raises
    {!Repro_arm.Mem.Fault} (for [access]) with [Translation] when an
    entry is invalid and [Bus] when a table address falls outside RAM.
    Permission checking is the caller's job (it depends on access type
    and privilege). *)

val permits : entry -> access:Repro_arm.Mem.access -> privileged:bool -> bool

(** {2 The softMMU TLB}

    A direct-mapped TLB with {!Tlb.entries} sets per privilege bank,
    laid out in a flat [int array] so DBT-emitted host code can probe
    it inline. Each set is 4 words: READ_TAG, WRITE_TAG, PADDR, spare.
    An invalid tag is [0xFFFFFFFF] (never equal to a page-aligned
    virtual address). *)

module Tlb : sig
  val entries : int
  (** Sets per bank (256). *)

  val stride_words : int
  (** Words per set (4). *)

  val words : int
  (** Total array size: 2 banks × entries × stride. *)

  val bank_offset_words : privileged:bool -> int
  val index : Word32.t -> int
  (** Set index of a virtual address. *)

  val set_base_words : privileged:bool -> Word32.t -> int
  (** Word offset of the set for a virtual address. *)

  val invalid_tag : int

  val flush : int array -> unit

  val fill : int array -> privileged:bool -> vaddr:Word32.t -> entry -> unit
  (** Install a translation for the page of [vaddr]; the WRITE_TAG is
      only set when the entry is writable (and, in the user bank, when
      it is user-accessible — non-user pages are never filled in the
      user bank at all). *)

  val lookup : int array -> privileged:bool -> write:bool -> Word32.t -> int
  (** Fast-path probe: the physical address on a hit, [-1] on a miss. *)

  val clear_write_tag : int array -> Word32.t -> unit
  (** Drop the write entry for the page of a virtual address in both
      banks (write-protecting translated code so self-modifying stores
      always take the slow path). *)
end

(** {2 Reference-machine memory interface} *)

val translate_entry :
  Repro_machine.Bus.t -> Repro_arm.Cpu.t -> Word32.t ->
  access:Repro_arm.Mem.access -> privileged:bool -> entry
(** The permitted entry of a virtual address under the CPU's current
    MMU configuration: a walk and a permission check when the MMU is
    on, an identity, writable, user entry when it is off. Raises
    {!Repro_arm.Mem.Fault}. *)

val translate :
  Repro_machine.Bus.t -> Repro_arm.Cpu.t -> Word32.t ->
  access:Repro_arm.Mem.access -> privileged:bool -> Word32.t
(** Pure virtual→physical translation through {!translate_entry};
    performs no access. Used by shadow verification to resolve guest
    addresses without touching devices. Raises {!Repro_arm.Mem.Fault}. *)

val peek_fetch :
  Repro_machine.Bus.t -> ttbr:Word32.t -> mmu_on:bool -> privileged:bool -> Word32.t ->
  Word32.t option
(** The word a fetch at a virtual address would read under the given
    regime, read from RAM with no side effect (no injector draw, TLB
    fill, device read or count); [None] where the fetch would fault or
    read outside RAM. *)

val iface :
  ?inject:Repro_faultinject.Faultinject.t ->
  Repro_machine.Bus.t -> Repro_arm.Cpu.t -> Repro_arm.Mem.iface
(** The {!Repro_arm.Mem.iface} of the full system as the reference
    interpreter sees it: translation when the CPU's MMU is enabled,
    permission checks by current privilege, device dispatch through
    the bus. Performs a fresh page walk per access (no TLB), which
    keeps it trivially correct for differential testing.

    [inject], when given, exercises the [Walk_corrupt] fault point:
    a fired fault models a corrupted walk result that is detected and
    re-walked — guest-invisible by construction. *)
