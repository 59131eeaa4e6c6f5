(** The persistent AOT code depot: a durable on-disk artifact holding
    a learned ruleset plus translated code (TBs and superblocks, host
    programs included), decoupled from full machine snapshots — so a
    machine, or a whole fleet, boots {e warm} without translating what
    the depot holds.

    The depot is a {e directory}:

    {v
      <dir>/MANIFEST        tiny text file, committed last
      <dir>/depot-<g>.bin   one immutable generation-stamped blob
    v}

    and every update is crash-atomic: the new blob is written first
    (temp + fsync + rename via {!Repro_common.Atomicio}), then the
    manifest — which names the blob, its byte count and the framing
    checksum its header stores — commits the new generation with a
    second atomic rename. A crash between the two leaves an orphaned
    blob the loader never looks at; the previous generation stays live.

    A blob is a {!Repro_snapshot.Snapshot} container: the same magic,
    version, section framing, per-section and framing checksums,
    and the same {!Repro_snapshot.Snapshot.of_string} parses it. Its
    sections, in order: ["generation"] (the commit generation, one
    int), ["compat"] (the {!compat} key), ["rules"] (the serialized
    ruleset), ["cache"] (the code cache — the opaque payload produced
    by [Repro_dbt.System], in the byte form snapshots use), ["health"] (blacklist
    / rule strikes / quarantined rules) and ["quarantine"] (guest PCs
    whose depot entries were poisoned — shadow verification caught a
    depot-loaded TB diverging, and the write-back keeps the poison
    from ever reloading).

    Nothing translated is trusted untyped: every load failure — torn
    write, truncation, bit flip, version or compatibility skew —
    raises {!Depot_error} naming the damaged section, and callers
    degrade to cold JIT translation instead of crashing. *)

exception Depot_error of { section : string; reason : string }
(** The only exception the load/verify paths raise, whatever the
    bytes on disk. [section] is a blob section name, or ["manifest"] /
    ["blob"] / ["container"] for damage outside any section. *)

val err : string -> ('a, unit, string, 'b) format4 -> 'a
(** [err section fmt ...] raises {!Depot_error} against [section]. *)

val guard : string -> (unit -> 'a) -> 'a
(** [guard section f] runs [f], turning a decoder slip
    ({!Repro_snapshot.Snapshot.Corrupt}, [Invalid_argument]) or a
    failed read ([Sys_error]) into {!Depot_error} against [section] —
    the one error boundary for depot payloads, here and in the engine
    layer that decodes the code. *)

type compat = {
  c_mode : string;  (** engine mode name, e.g. ["rules:full"] *)
  c_rules_digest : int;
      (** {!Repro_rules.Serialize.digest} of the ruleset the code was
          translated under, FNV-1a-32 of its [rules] bytes; [0] in
          qemu mode *)
  c_hot_threshold : int;
      (** {!Repro_tcg.Engine.hot_threshold} at capture time — depots
          record superblocks fused at exactly this hotness *)
}
(** The compatibility key. Install refuses a depot whose key differs
    from the machine's in any component: code is only installable
    under the translator configuration that produced it. *)

type t

val create :
  compat:compat ->
  rules:string ->
  cache:string ->
  health:string ->
  t
(** A fresh depot at generation 0 (stamped on first {!save}). *)

val compat : t -> compat
val generation : t -> int

val rules : t -> string
(** The ruleset as {!Repro_rules.Serialize.save} bytes (empty in qemu
    mode) — a warm boot can adopt it instead of re-learning. *)

val cache_payload : t -> string
val health : t -> string
val set_health : t -> string -> unit

val quarantined_pcs : t -> int list
(** Sorted guest PCs whose depot entries are poisoned. *)

val quarantine_pcs : t -> int list -> bool
(** Add PCs to the poison set (write-back after a shadow-verification
    divergence on a depot-installed TB). Returns [true] when the set
    grew — i.e. a {!save} is warranted. *)

val to_string : t -> string
val of_string : string -> t
(** Parse the container ({!Repro_snapshot.Snapshot.of_string}: magic,
    version, every per-section checksum, then the framing checksum)
    and decode the sections. Raises {!Depot_error} (and nothing else)
    on any failure, naming the section the container blamed. *)

val save : ?inject:Repro_faultinject.Faultinject.t -> dir:string -> t -> int
(** Commit the depot to [dir] as the next generation (creating the
    directory if needed) and garbage-collect older blobs. Returns the
    committed generation. With [inject], the {!Repro_faultinject}
    [Depot_torn] site can tear the blob write (a prefix reaches disk
    yet the manifest still commits — the worst case the checksums
    exist to catch). *)

val load : ?inject:Repro_faultinject.Faultinject.t -> string -> t
(** Load the manifest-current generation from a depot directory.
    With [inject], the [Depot_trunc] / [Depot_flip] sites damage the
    bytes after the read, exercising the verification path. Raises
    {!Depot_error} on any integrity failure. *)

val manifest_name : string
(** ["MANIFEST"] — exposed so tooling (CI corruption drills) can
    locate the current blob. *)

val blob_name : t -> string
(** The blob filename this depot's generation lives in. *)
