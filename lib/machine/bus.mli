(** The guest physical address space: RAM at 0x0 plus the MMIO device
    window at 0xF000_0000. The RAM ({!Repro_common.Ram}) is shared
    with the host execution context so DBT-emitted code can access
    guest memory directly after translation, while device pages always
    take the slow path (they are never entered into the TLB). *)

open Repro_common

val timer_base : Word32.t
val uart_base : Word32.t
val syscon_base : Word32.t

type t = {
  ram : Ram.t;
      (** Checked against the RAM size here, once per access, and
          shared with whoever else reads and writes it. *)
  timer : Devices.Timer.t;
  uart : Devices.Uart.t;
  syscon : Devices.Syscon.t;
  mutable inject : Repro_faultinject.Faultinject.t option;
      (** When armed, bus accesses pass through the fault injector:
          transient faults are counted and proceed, surfaced faults
          become bus errors. Armed by [Repro_dbt.System.run] so image
          loading is never perturbed. *)
  mutable device_read_hook : (Word32.t -> Word32.t -> unit) option;
      (** Observer of successful MMIO reads [(paddr, value)] — the
          event journal records them at their retired-instruction
          timestamps. Transient run state, never serialized. *)
}

val create : ram:Ram.t -> t

val ram_size : t -> int

val is_ram : t -> Word32.t -> bool
(** Physical page is ordinary RAM (safe to map in the TLB). *)

exception Bus_error
(** An unmapped physical address, or an injected bus fault that
    surfaces. *)

val read32 : t -> Word32.t -> Word32.t
(** Raises {!Bus_error}. Addresses must be 4-aligned (checked by the
    MMU before dispatch). *)

val write32 : t -> Word32.t -> Word32.t -> unit
val read8 : t -> Word32.t -> int
val write8 : t -> Word32.t -> int -> unit
(** All raise {!Bus_error}. *)

val read16 : t -> Word32.t -> int
(** A halfword as two {!read8}s, both made even when one raises (so
    the number of fault draws does not depend on their outcome). *)

val write16 : t -> Word32.t -> int -> unit
(** Low byte, then high; a raise on the low byte skips the high. *)

val tick : t -> int -> unit
(** Advance device time by [n] retired guest instructions. *)

val irq_line : t -> bool
val halted : t -> Word32.t option
