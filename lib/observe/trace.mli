(** Ring-buffered structured event trace.

    Events are typed [(at, cat, name, a, b)] tuples where [at] is the
    machine clock — retired guest instructions, installed by the
    runtime via {!set_clock} — and [a]/[b] are event-specific integer
    payloads (a guest PC, a TB id, a fault site…).  The ring is
    bounded; when full the oldest event is overwritten and
    {!dropped} advances, so tracing is safe to leave on for
    arbitrarily long runs.

    Emission never charges {!Repro_x86.Stats} counters and never
    draws injector PRNG: traced runs are bit-identical to untraced
    runs (tested in [test_observe]). *)

type category =
  | Exec      (** TB dispatch, translation, engine returns *)
  | Chain     (** block chaining: patch and follow *)
  | Sync      (** coordination events (context save/restore related) *)
  | Irq       (** timer raise, delivery, scheduled checks *)
  | Tlb       (** softMMU slow path, flushes *)
  | Shadow    (** shadow verification replays and divergences *)
  | Watchdog  (** livelock detection and recovery *)
  | Snapshot  (** checkpoint capture and restore *)
  | Fault     (** fault-injector firings *)
  | Fleet     (** supervision: restarts, health transitions, breaker trips *)
  | Request
      (** causal request lifecycle: assignment, per-attempt begin/end,
          retries and verdicts, keyed by request id in [a] *)

type event = { at : int; cat : category; name : string; a : int; b : int }

type t

val categories : category list
val category_name : category -> string

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events.  Raises [Invalid_argument] on a
    non-positive capacity. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the timestamp source (the runtime points this at retired
    guest instructions).  Default clock is constant 0. *)

val emit : t -> ?a:int -> ?b:int -> category -> string -> unit

val length : t -> int
(** Events currently retained. *)

val total : t -> int
(** Events ever emitted. *)

val dropped : t -> int
(** Events overwritten by ring wrap ([total - length]). *)

val clear : t -> unit
val iter : t -> (event -> unit) -> unit
(** Oldest first. *)

val events : t -> event list
(** Oldest first. *)

val write_jsonl : out_channel -> t -> unit
(** One JSON object per event, oldest first, followed by a
    [{"meta":"trace","total":…,"dropped":…}] trailer line. *)

val write_chrome : out_channel -> t -> unit
(** Chrome trace-event JSON (Perfetto-loadable): instant events, one
    thread per category, [ts] in retired guest instructions. *)

val write_chrome_streams : out_channel -> (string * t) list -> unit
(** Merged Chrome/Perfetto export of several rings: one process per
    [(name, ring)] stream (a fleet machine, the dispatcher), one
    thread per category within it. [Request]-category
    [req:begin]/[req:end] pairs are rendered as duration slices so a
    slow or retried request shows up as a span on its machine's
    track; all other events stay instants. Streams keep their own
    clocks (a machine's monotone work clock need not agree with the
    fleet's request counter). *)
