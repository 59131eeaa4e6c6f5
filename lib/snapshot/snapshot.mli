(** Crash-consistent machine snapshots.

    A snapshot is an ordered list of named binary sections inside a
    versioned, checksummed container:

    {v
      bytes 0..7    magic "DBTSNAP\x01"
      bytes 8..15   u64 LE format version (currently 2)
      bytes 16..23  u64 LE FNV-1a-32 checksum of the body (low 32 bits)
      bytes 24..    body: u64 section count, then per section a
                    length-prefixed name, a length-prefixed payload,
                    and a u64 FNV-1a-32 checksum of the payload
    v}

    All integers are little-endian u64 ({!Enc}/{!Dec}); section order
    is preserved so save -> load -> save is byte-identical. The
    machine-core sections (CPU, env, RAM, TLB, devices, injector,
    stats) are produced and consumed here; engine-level sections
    (translation-cache records, ruleset health, resume cursor,
    journal) are layered on by [Repro_dbt.System]. *)

exception Corrupt of string
(** A semantic problem in an already-loaded snapshot: missing or
    malformed section payload, shape mismatch against the machine
    being restored into. *)

exception Load_error of { section : string; reason : string }
(** Container-integrity failure while {e loading} raw bytes
    ({!of_string} / {!load_file}): truncation, bad magic, version
    skew, a checksum mismatch. [section] names the innermost section
    being decoded when the damage surfaced — ["container"] when it
    lies outside any section (header, framing, the whole-body
    checksum). Loading raises nothing else, whatever the input
    bytes. *)

val format_version : int

(** {2 Primitive little-endian encoders} *)

module Enc : sig
  type t

  val create : unit -> t
  val u64 : t -> int64 -> unit
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val i64_array : t -> int64 array -> unit

  val int_pairs : t -> (int * int) list -> unit
  (** A count, then each pair's two ints. *)

  val contents : t -> string
end

module Dec : sig
  type t

  val of_string : ?name:string -> string -> t
  (** [name] labels {!Corrupt} messages. *)

  val u64 : t -> int64
  val int : t -> int
  val bool : t -> bool
  val string : t -> string
  val int_array : t -> int array
  val i64_array : t -> int64 array
  val int_pairs : t -> (int * int) list

  val finished : t -> bool
  (** All input consumed — decoders should end on [true]. *)
end

(** {2 The section container}

    In memory the ["ram"] section is an array of immutable 4 KiB page
    strings ({!Repro_common.Pages}); every other section is one
    string. A checkpoint shares each page it did not need to copy with
    the checkpoint before it, so holding many checkpoints of one
    machine costs the pages that changed between them, not a RAM image
    each. The serialized form does not know about pages: the ["ram"]
    payload is the pages concatenated. *)

type t

val create : unit -> t

val copy : t -> t
(** A container with the same sections; adding to either leaves the
    other as it was. Payloads are immutable and shared, so this costs
    nothing per byte. *)

val add : ?prev:t -> t -> string -> string -> unit
(** Append section [name] with the given payload (a ["ram"] payload is
    cut into pages). When [prev] has a section [name] with the same
    bytes, its string is added instead, so a capture shares what did
    not change since [prev]. Raises [Invalid_argument] on a duplicate
    name. *)

val find : t -> string -> string
(** Raises {!Corrupt} when the section is absent. The ["ram"] section
    comes back as one string built from its pages. *)

val find_opt : t -> string -> string option
val mem : t -> string -> bool
val names : t -> string list

val ram_pages : t -> string array
(** The ["ram"] section's pages, shared, not copied — never mutate
    them. Raises {!Corrupt} when the section is absent. *)

val to_string : t -> string
(** Serialize to the checksummed container format. *)

val of_string : string -> t
(** Parse and validate magic, version, every per-section checksum and
    the whole-body checksum, and cut the ["ram"] payload into pages.
    Raises {!Load_error} (and nothing else) on any failure, naming the
    damaged section. *)

val save_file : string -> t -> unit
(** Crash-atomic: write-to-temp + fsync + rename
    ({!Repro_common.Atomicio}) — a crash leaves the previous file (or
    none), never a torn snapshot. *)

val load_file : string -> t
(** Raises {!Load_error} also when the file cannot be read
    ([section = "container"]). *)

(** {2 Machine-core capture}

    These cover everything below the translation cache: architectural
    CPU (current view, banked registers, CP15, FPSCR), the lazy-flag
    env array, host register file and EFLAGS, guest RAM, softMMU TLB,
    the three devices, the fault injector's PRNG cursor and counters,
    and the statistics block. *)

val capture_machine : ?prev:t -> Repro_tcg.Runtime.t -> t -> unit
(** Append the machine-core sections to [t]. RAM costs only the pages
    written since the machine's last capture or restore; the rest are
    shared with that snapshot ({!Repro_common.Ram.capture}). Every
    other section whose bytes equal [prev]'s is [prev]'s string; the
    int-array ones ([cpu], [env], [tlb], [timer], [stats]) are
    compared without being encoded. *)

val restore_machine : Repro_tcg.Runtime.t -> t -> unit
(** Write a capture back into a machine created with the same shape
    (RAM size, injector presence). Any snapshot may be restored — an
    older one, or one from another machine or a file: a RAM page is
    rewritten only when the machine dirtied it or its [sync] page is
    not physically the snapshot's, and the snapshot's pages become
    [sync] ({!Repro_common.Ram.restore}). Engine-transient runtime
    fields (pending code write, TB override, fault producers) are
    reset to their between-TB defaults. Raises {!Corrupt} on shape mismatch — including a
    snapshot that carries injector state restored into a machine
    without an injector, or vice versa. *)

(** {2 Checksum} *)

val fnv1a32 : string -> int
(** The body checksum (FNV-1a, 32-bit). *)
