(** The assembled virtual machine: host execution context, guest
    physical bus, the architectural CPU mirror that helpers operate
    on, and the softMMU view — shared by the QEMU-style baseline and
    the rule-based engine. *)

open Repro_common
module Exec = Repro_x86.Exec
module Bus = Repro_machine.Bus
module Cpu = Repro_arm.Cpu
module Mem = Repro_arm.Mem

type t = {
  ctx : Exec.t;
  bus : Bus.t;
  cpu : Cpu.t;  (** system-state mirror (modes, banks, cp15, FPSCR) *)
  mutable mem : Mem.iface;  (** reference-style translated view over bus+cpu *)
  dcache : Repro_arm.Decode_cache.t;
      (** decodes for the interpreter helpers, the translators and the
          shadow replay; snapshot restore leaves it alone *)
  mutable is_code_page : Word32.t -> bool;
      (** installed by the execution engine: virtual pages containing
          translated code; guest stores into them must invalidate *)
  mutable pending_code_write : bool;
      (** set when a store hit a code page via the interpreter path *)
  mutable tb_override : int option;
      (** translation-length override for the next block (the engine's
          singleton-TB protocol for same-page self-modification) *)
  mutable suppress_code_write : bool;
      (** one-shot: the next code-page store does not stop (it belongs
          to the freshly retranslated singleton TB) *)
  inject : Repro_faultinject.Faultinject.t option;
      (** fault injector shared by the engine, the helpers and the
          translators; [None] disables every injection point *)
  mutable fault_producers : (Word32.t * Word32.t array) array;
      (** the executing TB's {!Tb.t.fault_producers} table, published
          by the engine before each TB run: consulted on a guest data
          abort to replay instructions the translator scheduled after
          the faulting access but that architecturally precede it *)
  trace : Repro_observe.Trace.t option;
      (** structured event ring shared by devices, MMU helpers and
          the rule translator; the engine emits nothing into it, its
          events are a fold over the windows [observer] receives.
          [None] disables emission everywhere (the purely
          observational path — host-instruction counts are
          bit-identical with tracing on or off) *)
  observer : (Window.t -> unit) option;
      (** handed every charge window the engine closes; [None] and the
          engine splits nothing *)
  mutable irq_raised_at : int;
      (** retired-guest-insn clock at which the IRQ line became
          deliverable, until the engine delivers one ([-1] = none
          outstanding); observational, not snapshot state *)
}
(** The observers ([trace], [observer]) are the one place anything
    watching a run attaches, and both are fixed at {!create}. *)

exception Load_error of Word32.t
(** Raised by {!load_image} (and [Ref_machine.load_image]) when part
    of the image falls outside guest RAM — the offending physical
    address. Typed so front ends can report it with a distinct exit
    code instead of dying on [Failure]. *)

(** Helper stop codes (the payload of {!Exec.Helper_stop}). *)

val stop_exception : int
(** A guest exception was taken; [env] is already at the vector. *)

val stop_halt : int
(** The guest wrote the system controller's power-off register. *)

val stop_code_write : int
(** The guest wrote into a page holding translated code: the engine
    must flush the code cache and retranslate (self-modifying code). *)

val create :
  ?ram_kib:int ->
  ?inject:Repro_faultinject.Faultinject.t ->
  ?trace:Repro_observe.Trace.t ->
  ?observer:(Window.t -> unit) ->
  unit ->
  t
(** Fresh machine with RAM zeroed, CPU at reset, TLB invalid. The
    helper dispatcher is installed by {!Helpers.install}. [inject]
    arms the MMU/engine/translator fault points; the bus's own
    injection point is armed separately at run time (see
    {!Repro_machine.Bus.t}) so image loading is never perturbed.
    [trace] installs the event ring (its clock becomes retired guest
    instructions); [observer] receives every charge window. *)

val env : t -> int array
val stats : t -> Repro_x86.Stats.t

val privileged : t -> bool
(** Current privilege of the mirror CPU. *)

val load_image : t -> Word32.t -> Word32.t array -> unit
(** Copy an assembled image into guest physical memory. *)

val sync_env_to_cpu : t -> unit
val sync_cpu_to_env : t -> unit
val refresh_irq_pending : t -> unit
(** [env.irq_pending := bus line && not CPSR.I] (engine-maintained);
    stamps {!t.irq_raised_at}. *)

val take_guest_exception : t -> Cpu.exn_kind -> pc_of_faulting_insn:Word32.t -> unit
(** Full exception entry on the mirror, then resync to [env]. *)
