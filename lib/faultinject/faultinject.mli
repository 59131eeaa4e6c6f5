(** Deterministic fault injection.

    A single injector is threaded through the machine model (bus
    errors), the softMMU (spurious TLB invalidations, corrupted page
    walks), the execution engine (spurious interrupts, forced
    TB-cache flushes) and the rule-based translator (corrupted rule
    output). Every potential injection point calls {!fire}, which
    counts the event and draws from a seeded {!Repro_common.Prng} —
    runs are bit-reproducible for a given seed and set of rates.

    Faults split into two classes. {e Absorbable} faults (TLB or
    TB-cache invalidations, detected-and-retried walk corruption,
    spurious interrupts) must never change the guest-visible outcome,
    only its cost. {e Surfaceable} faults (bus errors under the
    {!Surface} behavior, rule corruption) are allowed to become
    architecturally visible and exercise the guest's abort paths and
    the translator's shadow-verification/quarantine defenses. *)

type site =
  | Bus_read      (** physical bus read error *)
  | Bus_write     (** physical bus write error *)
  | Tlb_flush     (** spurious software-TLB invalidation *)
  | Walk_corrupt  (** corrupted page-walk result (detected, re-walked) *)
  | Spurious_irq  (** interrupt asserted with no device source *)
  | Tb_flush      (** forced translation-cache flush *)
  | Rule_corrupt  (** corrupted rule-generated host code *)
  | Host_livelock
      (** rule-generated host code sabotaged into an infinite host
          loop — exercises the engine's fuel watchdog. Defaults to
          rate 0 (opt-in) even when [create ~rate] arms every other
          site, because it hangs the TB rather than perturbing it. *)
  | Depot_torn
      (** AOT depot blob torn mid-write: only a prefix of the bytes
          reach disk, yet the manifest still commits — models fsync
          lies and bit rot between write and crash. Caught at the next
          load by the container checksums. *)
  | Depot_trunc
      (** AOT depot blob truncated on the read path (tail lost). *)
  | Depot_flip
      (** one bit of the AOT depot blob flipped on the read path. *)

type behavior =
  | Transient  (** bus faults are counted but the access proceeds *)
  | Surface    (** bus faults surface as bus errors (guest aborts) *)

type t

val create : ?seed:int -> ?rate:float -> ?behavior:behavior -> unit -> t
(** Defaults: seed 1, every site at [rate] (default 0.001 = one fault
    per thousand events), [Transient] bus behavior. *)

val set_rate : t -> site -> float -> unit
(** Override the firing probability of one site (0.0 disables it). *)

val fire : t -> site -> bool
(** Record one event at [site] and decide whether a fault fires. *)

val surfaces : t -> bool
(** Whether bus faults should surface as bus errors. *)

val events : t -> site -> int
val fired : t -> site -> int
val total_events : t -> int
val total_fired : t -> int
val all_sites : site list
val site_name : site -> string
val pp : Format.formatter -> t -> unit

val set_fire_hook : t -> (site -> unit) option -> unit
(** Observer called on every {e fired} fault (after the counters are
    bumped). Used by the event journal; the hook itself is transient
    run state and is never serialized. *)

val set_trace : t -> Repro_observe.Trace.t option -> unit
(** Attach the event ring: every fired fault emits a [Fault] event
    named after its site. Does not perturb the PRNG stream and is
    never serialized. *)

val export : t -> int64 array
(** Complete injector state — PRNG cursor, behavior, per-site rates
    and counters — for embedding in a machine snapshot. *)

val import : t -> int64 array -> unit
(** Restore state captured by {!export} into an injector created with
    the same behavior. Raises [Invalid_argument] on layout or behavior
    mismatch. *)

val of_export : int64 array -> t
(** Build a fresh injector from an {!export}ed state — the replay
    driver's way to reconstruct an injector whose behavior it does not
    know ahead of time. Raises [Invalid_argument] on a malformed
    capture. *)

val behavior : t -> behavior
val rate : t -> site -> float

val reseed : t -> seed:int -> unit
(** Reset the PRNG cursor to the stream of a fresh [create ~seed] —
    how a fleet gives each machine restored from one shared warm
    snapshot its own deterministic entropy stream. Counters and rates
    are untouched. *)

(** {2 Fleet chaos-drill plans}

    One deterministic plan, derived entirely from a fleet seed,
    decides which k of N machines run faulty, with which fault sites
    and rates, and which per-machine injector seed each machine gets —
    so a drill replays bit-identically from the seed alone. *)

module Plan : sig
  type injector := t
  type t

  val make :
    seed:int -> machines:int -> faulty:int -> (site * float) list -> t
  (** [make ~seed ~machines ~faulty faults]: choose a uniform [faulty]
      -sized subset of the [machines] and a derived injector seed per
      machine. Raises [Invalid_argument] on [machines <= 0], [faulty]
      outside [0, machines], or a negative rate. *)

  val seed : t -> int
  val machines : t -> int
  val is_faulty : t -> int -> bool
  val machine_seed : t -> int -> int

  val faulty_machines : t -> int list
  (** Ascending machine indices chosen to run faulty. *)

  val arm : t -> int -> injector -> unit
  (** [arm t m inj]: {!reseed} [inj] to machine [m]'s derived seed,
      zero every site's rate, then arm the plan's fault sites iff [m]
      is one of the faulty machines. Call after each snapshot restore
      (the restore overwrote cursor and rates with the captured
      ones). *)
end
