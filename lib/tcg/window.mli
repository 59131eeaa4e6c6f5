(** Charge windows: the one stream of modelled cost the engine hands
    its observer ({!Runtime.t.observer}).

    At every site where control leaves or enters emitted code the
    engine closes a window: what happened there, the guest page and
    privilege it is charged to, and the {!Repro_x86.Stats.t.by_tag}
    and [sync_ops] deltas since the previous close. Every charge goes
    through {!Repro_x86.Stats.charge_tag}, so a run's windows
    partition its [host_insns] delta up to the last close. Observers
    (the perf scope, the ledger's dynamic view, the trace ring's
    engine events) fold the windows; the engine knows none of them. *)

type event =
  | Translated  (** [tb] was translated and cached *)
  | Prefetch_abort  (** translation faulted into the guest's handler *)
  | Dispatched  (** back through the engine to a code-cache lookup *)
  | Chained  (** a chained jump into [tb] *)
  | Linked  (** an exit was chained to [tb]; nothing is charged *)
  | Region_formed  (** [tb] is a superblock fused at a hot head *)
  | Irq_delivered  (** an interrupt delivery and its lazy flag parse *)
  | Smc_flush  (** a store into translated code flushed the cache *)
  | Entered  (** [tb]'s entry hooks, before it runs *)
  | Ran  (** [tb] ran to an exit *)

type t = private {
  mutable event : event;
  mutable tb : Tb.t;
      (** the TB the event names; for the other sites the TB that ran
          last, {!no_tb} for a prefetch abort *)
  mutable page : int;  (** guest virtual page charged *)
  mutable privileged : bool;
  mutable clock : int;  (** retired guest instructions at the close *)
  mutable guest : int;  (** guest instructions retired in the window *)
  tags : int array;  (** host instructions charged, [by_tag] layout *)
  mutable host : int;  (** their sum *)
  mutable sync_ops : int;  (** coordination operations executed *)
  mutable irq_raised_at : int;
      (** for [Irq_delivered]: when the delivered line became
          deliverable ({!Runtime.t.irq_raised_at}), [-1] if never *)
  mutable pc : int;
      (** the guest address the event is at: for [Prefetch_abort] the
          faulting address, for [Smc_flush] the PC execution resumes
          at, for [Irq_delivered] the interrupted PC *)
  cursor : int array;
  mutable sync_cursor : int;
}

val no_tb : Tb.t
(** Stands for "no TB"; never executed. *)

val create : Repro_x86.Stats.t -> t
(** A window whose first delta counts from the counters now: the
    cursors are run-local, so a restored run attributes its own
    windows only. *)

val close :
  t -> Repro_x86.Stats.t -> event -> Tb.t -> page:int -> privileged:bool -> unit
(** Fill the window with the deltas since the previous close and move
    the cursors. Allocates nothing. *)

val set_irq_raised_at : t -> int -> unit

val set_pc : t -> int -> unit
(** Set {!t.pc} for the next close that reads it. *)
