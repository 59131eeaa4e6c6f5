(** The interpreter-driven reference machine: the same platform (bus,
    devices, MMU) executed by the architectural interpreter. It
    provides the ground truth for differential testing of both DBT
    engines, and the "native execution" instruction counts of the
    paper's Fig. 18. *)

open Repro_common
module Cpu = Repro_arm.Cpu
module Bus = Repro_machine.Bus

type t = {
  cpu : Cpu.t;
  bus : Bus.t;
  mem : Repro_arm.Mem.iface;
  dcache : Repro_arm.Decode_cache.t;
}

val create : ?ram_kib:int -> unit -> t

val load_image : t -> Word32.t -> Word32.t array -> unit
(** Raises {!Runtime.Load_error} when the image falls outside RAM. *)

type outcome = Halted of Word32.t | Step_limit | Decode_error of string

val run : t -> max_steps:int -> outcome * int
(** Execute until power-off or [max_steps]; returns the outcome and
    the number of retired guest instructions. Device time advances one
    tick per instruction, as in the DBT engines. *)
