(** Host-code builder and finalized translation-block programs.

    Emission is append-only with fresh local labels; {!finalize}
    produces an immutable program, compiled at its first run into the
    threaded code that {!Exec.run} executes. *)

type builder

val builder : unit -> builder

val emit : builder -> ?tag:Insn.tag -> Insn.t -> unit
(** Append one instruction ([tag] defaults to [Tag_compute]). *)

val emit_all : builder -> ?tag:Insn.tag -> Insn.t list -> unit

val repatch_last_retire : builder -> (int -> int) -> unit
(** Rewrite the attribution payload of the most recently emitted
    [Count (Cnt_guest_insn _)] in place (a no-op if none was emitted).
    Lets a fallback path re-attribute the current guest instruction
    after its retirement counter has already been placed. *)

val fresh_label : builder -> int
(** Allocate a label id (place it with [emit (Label id)]). *)

val length : builder -> int
(** Number of countable (non-pseudo) instructions emitted so far. *)

type t = Exec.program = private {
  code : Insn.t array;
  tags : Insn.tag array;  (** the stats tag of each [code] entry *)
  mutable kernel : Exec.kernel;
      (** [code] compiled at its first run; see {!Exec.program} for
          two domains running it first at once *)
}

val finalize : builder -> t
(** The emitted instructions as a program ({!Exec.compile}), compiled
    at its first run. Its code is never modified: to change one, emit
    a new one. *)

val of_code : code:Insn.t array -> tags:Insn.tag array -> t
(** Instructions emitted once before (a code cache read back from
    bytes), as {!finalize} makes them. *)

val pp : Format.formatter -> t -> unit
val static_count : t -> int
(** Countable (non-pseudo) instructions in the program. *)

val is_pseudo : Insn.t -> bool
(** Labels and counters execute at zero cost. *)
