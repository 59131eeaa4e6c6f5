(** Crash-consistent machine snapshots.

    A snapshot is an ordered list of named binary sections inside a
    versioned, checksummed container:

    {v
      bytes 0..7    magic "DBTSNAP\x01"
      bytes 8..15   u64 LE format version (currently 4)
      bytes 16..23  u64 LE FNV-1a-32 checksum of the framing
      bytes 24..    body: a section count, then per section a
                    length-prefixed name, a length-prefixed payload,
                    and the payload's FNV-1a-32 checksum
    v}

    Every number after the header is a varint ({!Enc}/{!Dec}). The
    framing is the body without its payloads: each payload byte is
    under its section's checksum, each framing byte under the
    header's, which still commits to every payload through the section
    checksums it covers. Section order is preserved so save -> load ->
    save is byte-identical. The machine-core sections (CPU, env, RAM,
    TLB, devices, injector, stats) are produced and consumed here;
    engine-level sections (the code cache, ruleset health, resume
    cursor, journal) are layered on by [Repro_dbt.System]. *)

exception Corrupt of string
(** {!Repro_common.Codec.Corrupt}, the codec's one failure, also
    raised for a semantic problem in an already-loaded snapshot:
    missing or malformed section payload, shape mismatch against the
    machine being restored into. *)

exception Load_error of { section : string; reason : string }
(** Container-integrity failure while {e loading} raw bytes
    ({!of_string} / {!load_file}): truncation, bad magic, version
    skew, a checksum mismatch. [section] names the innermost section
    being decoded when the damage surfaced — ["container"] when it
    lies outside any section (header, framing, the whole-body
    checksum). Loading raises nothing else, whatever the input
    bytes. *)

val format_version : int

(** {2 The byte codec}

    Snapshots and depots write every section with
    {!Repro_common.Codec}; these are its modules under the names the
    engine's section writers use. *)

module Enc = Repro_common.Codec.Enc
module Dec = Repro_common.Codec.Dec

(** {2 The section container}

    In memory the ["ram"] section is a vector of immutable 4 KiB page
    strings ({!Repro_common.Pages}). A checkpoint shares each page it
    did not need to copy with the checkpoint before it, so holding
    many checkpoints of one machine costs the pages that changed
    between them, not a RAM image each. A section added with
    {!add_value} holds a captured value and is encoded to bytes only
    when they are asked for ({!find}, {!to_string}); the bytes are not
    kept. Every other section is one string. The serialized form knows
    neither: the ["ram"] payload is the pages concatenated, and a value
    section is its encoding. *)

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

type value = ..
(** What a value section holds; its owner extends the type. *)

val add_value : t -> string -> value -> encode:(value -> string) -> unit
(** Append section [name] holding [value] as it is; [encode value] is
    its bytes, computed each time they are asked for ({!find},
    {!to_string}). The value must not change after it is added. Raises
    [Invalid_argument] on a duplicate name. *)

val value : t -> string -> value option
(** The value of a section added with {!add_value} (or an int-array
    section of {!capture_machine}); [None] when the section is absent
    or holds bytes (every section of a snapshot read by {!of_string}
    does). *)

val find : t -> string -> string
(** Raises {!Corrupt} when the section is absent. The ["ram"] section
    comes back as one string built from its pages, a value section as
    its encoding. *)

val find_opt : t -> string -> string option
val mem : t -> string -> bool
val names : t -> string list

val ram_pages : t -> Repro_common.Pages.t
(** The ["ram"] section's pages, shared, not copied. Raises {!Corrupt}
    when the section is absent. *)

val to_string : t -> string
(** Serialize to the checksummed container format. *)

val of_string : string -> t
(** Parse and validate magic, version, every per-section checksum and
    the framing checksum, and cut the ["ram"] payload into pages.
    Raises {!Load_error} (and nothing else) on any failure, naming the
    damaged section. *)

val header_checksum : string -> int
(** The framing checksum a container's header stores, read without
    folding anything. Raises {!Load_error} against ["container"] when
    the string is shorter than a header. *)

val decode : t -> string -> (Dec.t -> 'a) -> 'a
(** [decode t name f] is {!Dec.whole} over section [name]'s payload.
    Raises {!Corrupt} when the section is absent. *)

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
    shared with that snapshot ({!Repro_common.Ram.capture}). The
    int-array sections ([cpu], [env], [tlb], [timer], [stats]) hold
    copies of their words, encoded only when their bytes are asked
    for, and are [prev]'s when the words are equal; every other section
    whose bytes equal [prev]'s is [prev]'s string. *)

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
