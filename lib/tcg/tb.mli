(** Translation blocks and the code cache. *)

open Repro_common
module Prog = Repro_x86.Prog

type exit_kind =
  | Direct of Word32.t  (** chainable direct branch to a guest PC *)
  | Indirect            (** guest PC is in env *)
  | Irq_deliver         (** TB-head interrupt check fired *)

exception Tb_too_complex
(** Raised mid-translation when a block exceeds a per-TB resource
    budget (exit slots, per-insn temporaries). Translators catch it
    and retry with a shorter block — never guest-visible. *)

type t = {
  id : int;
  guest_pc : Word32.t;
  privileged : bool;
  mmu_on : bool;
  mutable prog : Prog.t;          (** re-emitted by inter-TB optimization *)
  exits : exit_kind array;        (** indexed by exit slot *)
  links : t option array;         (** chained successors, same indexing *)
  guest_insns : Repro_arm.Insn.t array;
  guest_len : int;
  fault_producers : (Word32.t * Word32.t array) array;
      (** Memory accesses the translator scheduled {e ahead} of
          architecturally-earlier instructions: the access's guest PC
          paired with the skipped instructions' PCs in program order.
          If such an access takes a guest fault, the runtime replays
          the skipped instructions through the interpreter before
          delivering the exception, so the guest observes
          program-order state ([[||]] for translators that do not
          reorder). *)
  mutable injected : [ `None | `Rule_corrupt | `Livelock ];
      (** Which fault-injection corruption (if any) was applied to
          this TB's emitted code: region formation never fuses a
          corrupted TB. *)
  mutable prov : int array;
      (** Coordination-savings provenance
          ([Ledger.prov_len] slots of the coordination ledger) recorded by the
          rule emitter; [[||]] for baseline translations. Purely
          observational: never serialized, never affects emitted code
          or modelled cost. *)
  mutable hot : int;
      (** Engine-side execution counter driving hot-region formation.
          Serialized in snapshots so region formation fires at the
          same retired-instruction point after a restore. *)
  region_ids : int array;
      (** Non-empty iff this TB is a fused superblock: the ids of its
          constituent TBs, in trace order. *)
}

val exit_slots : int
(** Maximum exit slots per TB (4). *)

val slot_irq : int
(** The reserved TB-head interrupt-check exit slot (3). *)

val region_exit_slots : int
(** Maximum exit slots of a fused superblock (12); slot {!slot_irq}
    stays reserved for the region-head interrupt check. *)

val is_region : t -> bool

module Cache : sig
  type tb := t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 4096) bounds the number of cached TBs — the
      stand-in for QEMU's fixed code-generation buffer. Raises
      [Invalid_argument] when non-positive. *)

  val find : t -> pc:Word32.t -> privileged:bool -> mmu_on:bool -> tb option
  (** Fused superblocks are consulted first: once a region is
      installed over a head PC, lookups there dispatch the region. *)

  val find_plain : t -> pc:Word32.t -> privileged:bool -> mmu_on:bool -> tb option
  (** Like {!find} but never returns a region — the constituent-TB
      view (depot install waves). *)

  val add : t -> tb -> unit
  (** Insert a TB. When the cache is at capacity this first drops every
      translation (QEMU's whole-buffer flush policy) — safe between TB
      executions because flushed TBs become unreachable. *)

  val add_exact : t -> tb -> unit
  (** Insert without the capacity check — installing captured code,
      which is known to have fit the captured cache. *)

  val add_region : t -> tb -> members:tb list -> unit
  (** Install a fused superblock (keyed by its head PC, preferred by
      {!find}) over its constituent TBs [members]. Never
      capacity-flushes; registers every virtual page a member touches,
      so self-modifying stores anywhere in the trace invalidate. The
      caller clears chain links targeting the head TB (see
      {!unlink_target}). *)

  val unlink_target : t -> tb -> unit
  (** Null every chain link (plain TBs and regions) that points at the
      given TB, forcing the next transfer there through dispatch. *)

  val near_capacity : t -> bool
  (** Within a few insertions of the capacity flush — region
      formation is skipped here so installing one never drops the
      constituents it was formed from. *)

  val flush : t -> unit
  val size : t -> int

  val region_count : t -> int

  val generation : t -> int
  (** Bumped on every flush. Direct-mapped dispatch caches in front of
      {!find} key entries on it, so a flush invalidates them without a
      scan. *)

  val full_flushes : t -> int
  (** Number of capacity-triggered whole-cache flushes so far. *)

  val set_full_flushes : t -> int -> unit
  val next_id : t -> int

  val ids : t -> int
  (** Current value of the TB id counter (snapshot state). *)

  val set_ids : t -> int -> unit

  val to_list : t -> tb list
  (** All cached plain TBs, ordered by guest PC (diagnostics). *)

  val regions_list : t -> tb list
  (** All installed superblocks, ordered by head guest PC. *)

  val by_id : t -> tb array
  (** All cached plain TBs in translation (id) order (snapshots and
      depots). The array is kept and returned again until the cache
      changes: do not mutate it. *)

  val regions_by_id : t -> tb array
  (** All installed superblocks in id order; kept like {!by_id}. *)

  val is_code_page : t -> int -> bool
  (** Does any cached TB overlap the given virtual page? Guest stores
      into such pages must invalidate (self-modifying code). *)

  val code_pages : t -> int list
end
