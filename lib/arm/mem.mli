(** The memory interface the interpreter (and, via the softMMU, both
    DBT engines) sees, together with the guest-visible fault record. *)

open Repro_common

type access = Fetch | Load | Store

type fault_kind =
  | Translation  (** no valid mapping (page fault) *)
  | Permission   (** mapped but not accessible at this privilege *)
  | Alignment
  | Bus          (** physical address outside RAM and devices *)

type fault = { vaddr : Word32.t; access : access; kind : fault_kind }

val dfsr_status : fault_kind -> int
(** The DFSR status code a data abort of this kind reports to the
    guest (loosely the short-descriptor codes: 5 translation,
    13 permission, 1 alignment, 8 external abort). The interpreter and
    the DBT helpers both report through it. *)

exception Fault of fault
(** How every memory interface reports a guest-visible fault. An access
    that succeeds returns a plain word and allocates nothing; only a
    faulting one builds its record. *)

val fault : Word32.t -> access -> fault_kind -> 'a
(** [fault vaddr access kind] raises {!Fault}. *)

type width = W8 | W16 | W32

val aligned : width -> Word32.t -> bool
(** Whether an access of this width at this address is naturally
    aligned. *)

type iface = {
  load : width -> privileged:bool -> Word32.t -> Word32.t;
  store : width -> privileged:bool -> Word32.t -> Word32.t -> unit;
  fetch : privileged:bool -> Word32.t -> Word32.t;
      (** All three raise {!Fault}. *)
  flush_tlb : unit -> unit;
      (** Invoked on cp15 c8 TLB-maintenance writes. *)
}

val flat : size:int -> Bytes.t * iface
(** A bare flat physical memory of [size] bytes with no translation —
    enough for user-level interpreter tests. Returns the backing store
    and the interface. Word accesses must be 4-aligned. *)
