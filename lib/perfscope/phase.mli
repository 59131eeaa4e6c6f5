(** Cost-attribution phases for the performance observatory.

    Every host instruction the engine retires is attributed to exactly
    one phase:

    - [Translate] — guest-to-host translation (including prefetch
      aborts taken while translating)
    - [Execute] — emitted compute code, engine dispatch, chained jumps
      and SMC recovery
    - [Coordinate] — Sync-tagged flag save/restore code, interrupt
      polling, and engine-side inter-TB flag restores
    - [Softmmu] — emitted TLB probes and the MMU helper slow path
    - [Helper] — helper-call glue, interpreter fallbacks and shadow
      verification replays
    - [Deliver] — interrupt delivery (bank switch, vectoring, and
      III-B's lazy flag parse)
    - [Region] — hot-region superblock formation (trace selection and
      the fused re-emission of the constituent TBs)

    The per-phase totals therefore partition
    {!Repro_x86.Stats.t.host_insns} over any engine run without
    watchdog rollbacks. *)

type t = Translate | Execute | Coordinate | Softmmu | Helper | Deliver | Region

val all : t list
(** In canonical (index) order. *)

val n : int
(** Number of phases (length of {!all}). *)

val index : t -> int
(** Position in {!all}; the layout of every per-phase [int array]. *)

val name : t -> string
