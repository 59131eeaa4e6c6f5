(** Host execution context and the instruction-counting threaded-code
    kernel that runs translated blocks on it.

    The context owns the three address spaces emitted code can touch
    (guest-state [Env] array, guest physical [Ram], softMMU [Tlb]
    array) plus the 16-register file and EFLAGS. [Env] and [Tlb] are
    arrays of 32-bit slots: a 32-bit access must be slot-aligned, and
    an 8- or 16-bit access reads or writes the byte lane [addr land 3]
    of its slot and must not cross into the next slot; a violation
    fails when the access executes. Helper calls dispatch to OCaml
    closures; on return every register except rbp/rsp is poisoned with
    a deterministic garbage value, so translated code that fails to
    coordinate guest CPU state breaks loudly in differential tests
    instead of silently working.

    A program is compiled exactly once, by {!compile} (which
    {!Prog.finalize} calls), into threaded code: one closure per
    instruction with its operand kinds, constant [Env]/[Tlb] slots,
    condition code, [by_tag] slot and label targets already resolved.
    {!run} only dispatches through it. *)

open Repro_common

type t = {
  regs : int array;  (** 16 host registers, 32-bit values *)
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Ram.t;
      (** Guest physical RAM, shared with the bus
          ({!Repro_machine.Bus.t}); its dirty bitmap and [sync] pages
          are what checkpoints copy from. *)
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
      (** [helper ctx id] runs helper [id] and returns the rax value.
          May raise {!Helper_stop}. Must charge its modelled cost via
          [stats]. *)
  mutable poison_counter : int;
}

exception Helper_stop of { code : int; arg : int }
(** Raised by helpers to abort TB execution (guest exception entry,
    interrupt delivery, machine halt). The engine interprets [code]. *)

exception Fuel_exhausted of { spent : int }
(** Raised by {!run} when a TB executes more than [fuel] countable
    host instructions — a runaway host loop (only reachable through
    corrupted emitted code; well-formed TBs are finite). Typed so the
    engine's livelock watchdog can catch it and roll back to a
    checkpoint instead of killing the process. *)

val create : ?env_slots:int -> ?ram_size:int -> ?tlb_words:int -> unit -> t
(** Defaults: 64 env slots, 1 MiB RAM, 3×256 TLB words. The [helper]
    field starts as a function that fails. *)

val get_flags_word : t -> Word32.t
(** EFLAGS packed in ARM NZCV layout (SF→31, ZF→30, CF→29, OF→28) —
    what [Savef] stores. *)

val set_flags_word : t -> Word32.t -> unit

type outcome =
  | Exited of int  (** TB finished through exit slot [n] *)
  | Stopped of { code : int; arg : int }  (** a helper raised {!Helper_stop} *)

type kernel
(** A program's threaded code. *)

type program = private {
  code : Insn.t array;
  tags : Insn.tag array;  (** the stats tag of each [code] entry *)
  kernel : kernel;  (** [code] compiled; never rewritten *)
}
(** A finalized program (re-exported as {!Prog.t}). Nothing writes
    [code] or [tags] once the program exists: a rewrite builds and
    compiles a new program. *)

val compile : code:Insn.t array -> tags:Insn.tag array -> program
(** Compile instructions and their tags (same length). Never fails: an
    undefined label or a missing [Exit] fails only if execution
    reaches it. Use {!Prog.finalize}. *)

val run : t -> program -> fuel:int -> outcome
(** Execute a program from its first instruction. For each non-pseudo
    instruction, in this order: charge one host instruction to its tag
    in [stats], count it against [fuel], raise {!Fuel_exhausted} with
    [spent = fuel + 1] once the count exceeds [fuel] (runaway-loop
    guard), then execute it. [Label] and [Count] are free and do not
    count against [fuel]. A helper's {!Helper_stop} ends the run as
    [Stopped], with everything up to and including the [Call_helper]
    already charged. Jumping to an undefined label, or running past
    the last instruction, fails with [Failure]. *)

val poison_caller_saved : t -> unit
(** What a helper return does to the register file (exposed for the
    engine, which performs the same clobbering when control returns to
    it between TBs). *)
