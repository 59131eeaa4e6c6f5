(** Lightweight event journal for deterministic record/replay.

    Between two checkpoints the machine is deterministic given its
    snapshot — devices advance on retired-instruction counts and the
    injector PRNG cursor is part of the capture — so the journal is
    not needed to {e drive} a replay, only to {e check} one: it
    records everything externally visible (delivered IRQs, injected
    faults, MMIO reads, divergences, the halt) at retired-instruction
    timestamps, and a replay that produces a different journal has
    diverged. The text format is line-oriented and stable, so dumps
    are diffable post-mortems as well as machine-checkable traces. *)

open Repro_common

type event =
  | Irq of { at : int; pc : Word32.t }
      (** interrupt delivered while the guest was at [pc] *)
  | Fault of { at : int; site : string }
      (** injected fault fired at site [site] (see
          {!Repro_faultinject.Faultinject.site_name}) *)
  | Dev_read of { at : int; paddr : Word32.t; value : Word32.t }
      (** successful MMIO read observed by the guest *)
  | Diverge of { at : int; pc : Word32.t; detail : string }
      (** shadow verification repaired a divergence at [pc] *)
  | Halt of { at : int; code : Word32.t }  (** machine powered off *)

val at : event -> int
(** The retired-guest-instruction timestamp. *)

type t

val create : unit -> t
val record : t -> event -> unit
val clear : t -> unit

val events : t -> event list
(** In recording order. *)

val length : t -> int

val string_of_event : event -> string
val event_of_string : string -> event
(** Raises [Failure] on an unparseable line. *)

val to_string : t -> string
(** One event per line, newline-terminated; empty for an empty
    journal. *)

val of_string : string -> t
(** Blank lines ignored. Raises {!Snapshot.Corrupt} on a malformed
    line. *)

val pp : Format.formatter -> t -> unit
