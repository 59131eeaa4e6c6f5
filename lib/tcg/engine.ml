open Repro_common
module Exec = Repro_x86.Exec
module X = Repro_x86.Insn
module Stats = Repro_x86.Stats
module Bus = Repro_machine.Bus
module Cpu = Repro_arm.Cpu

type translator = Runtime.t -> Tb.Cache.t -> pc:Word32.t -> (Tb.t, Repro_arm.Mem.fault) result

type result = {
  reason :
    [ `Halted of Word32.t | `Insn_limit | `Livelock of Word32.t | `Deadline ];
  executed_guest_insns : int;
}

type resume = {
  rpc : Word32.t;
  rprivileged : bool;
  rmmu_on : bool;
  rneeds_enter : bool;
}

let tb_fuel = 20_000

(* Executions of a plain TB before the engine offers it to [on_hot]
   for superblock fusion. Low enough that hot loop heads fuse early in
   a benchmark window, high enough that one-shot code never does. *)
let hot_threshold = 32

let run (rt : Runtime.t) cache ~translate ?(link_hook = fun ~pred:_ ~slot:_ ~succ:_ -> ())
    ?(on_enter = fun _ -> ())
    ?(on_executed = fun _ ~outcome:_ ~guest:_ -> `Continue)
    ?(chaining = true) ?(max_guest_insns = max_int) ?deadline
    ?(checkpoint_every = 0) ?on_checkpoint ?resume ?(on_irq = fun _ -> ())
    ?on_hot () =
  let stats = Runtime.stats rt in
  let env = Runtime.env rt in
  let start_insns = stats.Stats.guest_insns in
  (match resume with
  | None ->
    Runtime.sync_cpu_to_env rt;
    Runtime.refresh_irq_pending rt
  | Some _ ->
    (* Snapshot restore: env, the mirror CPU and the host flag state
       were restored verbatim (including the lazy packed-CCR tag that
       a cpu->env sync would clobber); resuming must not resync. *)
    ());
  let last_ticked = ref stats.Stats.guest_insns in
  let tick () =
    let d = stats.Stats.guest_insns - !last_ticked in
    if d > 0 then begin
      Bus.tick rt.Runtime.bus d;
      last_ticked := stats.Stats.guest_insns
    end;
    Runtime.refresh_irq_pending rt;
    (* Fault point: an interrupt asserted with no device source. Only
       deliverable when the guest has IRQs unmasked, in which case its
       handler runs like any hardware interrupt's. *)
    match rt.Runtime.inject with
    | Some inj
      when Repro_faultinject.Faultinject.fire inj
             Repro_faultinject.Faultinject.Spurious_irq ->
      if not (Cpu.irq_masked rt.Runtime.cpu) then env.(Envspec.irq_pending) <- 1
    | _ -> ()
  in
  let charge_glue n = Stats.charge_tag stats X.Tag_glue n in
  (* Cost attribution: every site where control leaves or enters
     emitted code closes one charge window for the runtime's observer.
     The cursors are run-local, so restored runs attribute their own
     windows only; with no observer nothing is split. *)
  let window = Window.create stats in
  let close event tb ~page ~privileged =
    match rt.Runtime.observer with
    | None -> ()
    | Some observe ->
      Window.close window stats event tb ~page ~privileged;
      observe window
  in
  let close_at event tb =
    close event tb ~page:(tb.Tb.guest_pc lsr 12) ~privileged:tb.Tb.privileged
  in
  (* Direct-mapped jump cache in front of the Hashtbl lookup (QEMU's
     tb_jmp_cache): the dispatch fast path for the overwhelmingly
     common case of re-dispatching a PC looked up before. Entries are
     validated against the cache generation (every flush bumps it, so
     flushed translations can never be returned) and the lookup
     regime; run-local, so restored runs simply start cold. *)
  let jc_bits = 10 in
  let jc_size = 1 lsl jc_bits in
  let jc_pc = Array.make jc_size (-1) in
  let jc_tb : Tb.t option array = Array.make jc_size None in
  let jc_gen = Array.make jc_size (-1) in
  let jc_index pc = (pc lsr 2) land (jc_size - 1) in
  let jc_invalidate pc =
    let i = jc_index pc in
    jc_pc.(i) <- -1;
    jc_tb.(i) <- None
  in
  let rec lookup_or_translate pc =
    (* Fault point: a forced whole-cache flush before the lookup —
       every resident translation is dropped and rebuilt on demand. *)
    (match rt.Runtime.inject with
    | Some inj
      when Repro_faultinject.Faultinject.fire inj Repro_faultinject.Faultinject.Tb_flush
      ->
      Tb.Cache.flush cache
    | _ -> ());
    let privileged = Runtime.privileged rt in
    let mmu_on = Cpu.mmu_enabled rt.Runtime.cpu in
    let i = jc_index pc in
    let jc_hit =
      match jc_tb.(i) with
      | Some tb
        when jc_pc.(i) = pc
             && jc_gen.(i) = Tb.Cache.generation cache
             && tb.Tb.privileged = privileged && tb.Tb.mmu_on = mmu_on -> Some tb
      | _ -> None
    in
    match jc_hit with
    | Some tb -> tb
    | None -> lookup_slow pc ~privileged ~mmu_on ~i
  and lookup_slow pc ~privileged ~mmu_on ~i =
    let fill tb =
      jc_pc.(i) <- pc;
      jc_tb.(i) <- Some tb;
      jc_gen.(i) <- Tb.Cache.generation cache;
      tb
    in
    match Tb.Cache.find cache ~pc ~privileged ~mmu_on with
    | Some tb -> fill tb
    | None -> (
      match translate rt cache ~pc with
      | Ok tb ->
        stats.Stats.tb_translations <- stats.Stats.tb_translations + 1;
        charge_glue (Costs.translation_per_guest_insn () * tb.Tb.guest_len);
        Tb.Cache.add cache tb;
        (* write-protect the TB's pages: stores to them must take the
           slow path so self-modifying code is detected *)
        Repro_mmu.Mmu.Tlb.clear_write_tag rt.Runtime.ctx.Runtime.Exec.tlb tb.Tb.guest_pc;
        Repro_mmu.Mmu.Tlb.clear_write_tag rt.Runtime.ctx.Runtime.Exec.tlb
          (tb.Tb.guest_pc + (4 * tb.Tb.guest_len) - 4);
        close_at Window.Translated tb;
        fill tb
      | Error fault ->
        (* Prefetch abort: enter the guest's handler and translate
           there instead. *)
        charge_glue (Costs.exception_entry ());
        Runtime.take_guest_exception rt Cpu.Prefetch_abort
          ~pc_of_faulting_insn:fault.Repro_arm.Mem.vaddr;
        Window.set_pc window fault.Repro_arm.Mem.vaddr;
        close Window.Prefetch_abort Window.no_tb
          ~page:(fault.Repro_arm.Mem.vaddr lsr 12)
          ~privileged:true;
        lookup_or_translate env.(Envspec.pc))
  in
  let finish reason =
    Runtime.sync_env_to_cpu rt;
    { reason; executed_guest_insns = stats.Stats.guest_insns - start_insns }
  in
  (* The dispatch state is (current TB, does it still need its engine
     entry callback). Chained TB->TB transfers keep host state live
     and skip [on_enter]; every transition that goes back through the
     engine re-arms it. Checkpoints capture exactly this pair so a
     restored run re-enters the loop in the same phase. *)
  let current, needs_enter =
    match resume with
    | Some r -> (
      match
        Tb.Cache.find cache ~pc:r.rpc ~privileged:r.rprivileged ~mmu_on:r.rmmu_on
      with
      | Some tb -> (ref tb, ref r.rneeds_enter)
      | None ->
        (* The captured TB was not reconstructible; fall back to a
           fresh dispatch at the recorded PC. *)
        (ref (lookup_or_translate r.rpc), ref true))
    | None -> (ref (lookup_or_translate env.(Envspec.pc)), ref true)
  in
  (* Back through the engine to a fresh dispatch at [env.pc]: host
     registers are dead, and the next TB runs its entry callback. *)
  let return_to_engine () =
    Exec.poison_caller_saved rt.Runtime.ctx;
    stats.Stats.engine_returns <- stats.Stats.engine_returns + 1;
    charge_glue (Costs.engine_dispatch ());
    close Window.Dispatched !current
      ~page:(env.(Envspec.pc) lsr 12)
      ~privileged:(Runtime.privileged rt);
    current := lookup_or_translate env.(Envspec.pc);
    needs_enter := true
  in
  let checkpoint () =
    match on_checkpoint with
    | Some f ->
      let tb = !current in
      f
        {
          rpc = tb.Tb.guest_pc;
          rprivileged = tb.Tb.privileged;
          rmmu_on = tb.Tb.mmu_on;
          rneeds_enter = !needs_enter;
        }
    | None -> ()
  in
  let next_checkpoint =
    ref
      (if checkpoint_every > 0 then stats.Stats.guest_insns + checkpoint_every
       else max_int)
  in
  (* Per-request deadline on the retired-guest-insn clock: an absolute
     value of [stats.guest_insns] past which the run stops with the
     typed [`Deadline] result. Unlike the instruction budget it takes
     no checkpoint — a timed-out request is discarded, not resumed. *)
  let deadline = match deadline with Some d -> d | None -> max_int in
  let result = ref None in
  while !result = None do
    if stats.Stats.guest_insns >= deadline then
      result := Some (finish `Deadline)
    else if stats.Stats.guest_insns - start_insns >= max_guest_insns then begin
      (* Capture the stopping point too, so a saved snapshot resumes
         exactly here (including mid-chain dispatch state). *)
      checkpoint ();
      result := Some (finish `Insn_limit)
    end
    else begin
      (* Periodic checkpoints happen at a TB boundary, before the
         entry callback fires, so translator shadow state (pending
         verifications) is quiescent. *)
      if stats.Stats.guest_insns >= !next_checkpoint then begin
        checkpoint ();
        next_checkpoint := stats.Stats.guest_insns + checkpoint_every
      end;
      (* Hot-region formation: count executions of plain TBs and, at
         the threshold, offer the TB to the translator for superblock
         fusion. On success the freshly-installed region replaces the
         head for this very dispatch (guest state is at the head PC
         either way), and the jump-cache entry for the head is dropped
         so future dispatches can't bypass the region. One attempt per
         TB: past the threshold the counter never equals it again. *)
      (match on_hot with
      | Some form when not (Tb.is_region !current) ->
        let tb = !current in
        tb.Tb.hot <- tb.Tb.hot + 1;
        if tb.Tb.hot = hot_threshold then begin
          match form tb with
          | Some region ->
            jc_invalidate tb.Tb.guest_pc;
            close_at Window.Region_formed region;
            current := region;
            needs_enter := true
          | None -> ()
        end
      | _ -> ());
      let tb = !current in
      if !needs_enter then begin
        on_enter tb;
        needs_enter := false
      end;
      (* Entry-hook charges (inter-TB flag restore, shadow replay)
         close before the TB runs, so its own window holds only its
         execution. *)
      close_at Window.Entered tb;
      let guest0 = stats.Stats.guest_insns in
      rt.Runtime.fault_producers <- tb.Tb.fault_producers;
      match Exec.run rt.Runtime.ctx tb.Tb.prog ~fuel:tb_fuel with
      | exception Exec.Fuel_exhausted _ ->
        (* Runaway host loop (corrupted emitted code): abandon the TB.
           Guest state is mid-block garbage — the caller must roll
           back to a checkpoint (System's livelock watchdog) or give
           up on the run. *)
        rt.Runtime.suppress_code_write <- false;
        result := Some (finish (`Livelock tb.Tb.guest_pc))
      | outcome ->
        close_at Window.Ran tb;
        (* the one-shot code-write suppression never outlives the TB it
           was armed for *)
        rt.Runtime.suppress_code_write <- false;
        tick ();
        let verdict = on_executed tb ~outcome ~guest:(stats.Stats.guest_insns - guest0) in
        (match Bus.halted rt.Runtime.bus with
        | Some code -> result := Some (finish (`Halted code))
        | None -> (
          match verdict with
          | `Invalidate ->
            (* Shadow verification diverged: guest state has already been
               repaired from the reference replay. Drop every translation
               (the divergent TB's PC re-translates through the fallback
               ladder) and re-dispatch at the repaired PC. *)
            Tb.Cache.flush cache;
            return_to_engine ()
          | `Continue -> (
            match outcome with
            | Exec.Exited slot -> (
              match tb.Tb.exits.(slot) with
              | Tb.Direct target -> (
                match tb.Tb.links.(slot) with
                | Some next ->
                  stats.Stats.chained_jumps <- stats.Stats.chained_jumps + 1;
                  charge_glue (Costs.chain_jump ());
                  close_at Window.Chained next;
                  current := next
                | None ->
                  Exec.poison_caller_saved rt.Runtime.ctx;
                  stats.Stats.engine_returns <- stats.Stats.engine_returns + 1;
                  charge_glue (Costs.engine_dispatch ());
                  close Window.Dispatched tb ~page:(target lsr 12)
                    ~privileged:tb.Tb.privileged;
                  let next = lookup_or_translate target in
                  if chaining then begin
                    tb.Tb.links.(slot) <- Some next;
                    close_at Window.Linked next;
                    link_hook ~pred:tb ~slot ~succ:next
                  end;
                  current := next;
                  needs_enter := true)
              | Tb.Indirect -> return_to_engine ()
              | Tb.Irq_deliver ->
                Exec.poison_caller_saved rt.Runtime.ctx;
                stats.Stats.irqs_delivered <- stats.Stats.irqs_delivered + 1;
                Window.set_pc window env.(Envspec.pc);
                charge_glue (Costs.irq_deliver ());
                (* The lazy one-to-many parse happens here, when QEMU
                   actually needs the condition codes (paper Fig. 7). *)
                let parse_cost = Envspec.parse_packed env in
                Stats.charge_tag stats X.Tag_sync parse_cost;
                Window.set_irq_raised_at window rt.Runtime.irq_raised_at;
                rt.Runtime.irq_raised_at <- -1;
                on_irq env.(Envspec.pc);
                Runtime.take_guest_exception rt Cpu.Irq
                  ~pc_of_faulting_insn:env.(Envspec.pc);
                close Window.Irq_delivered tb
                  ~page:(env.(Envspec.pc) lsr 12)
                  ~privileged:true;
                current := lookup_or_translate env.(Envspec.pc);
                needs_enter := true)
            | Exec.Stopped { code; _ } ->
              if code = Runtime.stop_code_write then begin
                (* Self-modifying code: drop every translation (QEMU
                   invalidates per page; the whole-cache flush is the
                   simple sound variant) and resume at env.pc. The
                   resumed instruction is retranslated as a singleton TB
                   whose (idempotent, re-executed) store is allowed to
                   complete — QEMU's current-TB-modified protocol. *)
                Exec.poison_caller_saved rt.Runtime.ctx;
                Tb.Cache.flush cache;
                Window.set_pc window env.(Envspec.pc);
                charge_glue (Costs.engine_dispatch () + Costs.exception_entry ());
                close Window.Smc_flush tb
                  ~page:(env.(Envspec.pc) lsr 12)
                  ~privileged:(Runtime.privileged rt);
                rt.Runtime.tb_override <- Some 1;
                rt.Runtime.suppress_code_write <- true;
                let tb = lookup_or_translate env.(Envspec.pc) in
                rt.Runtime.tb_override <- None;
                current := tb;
                needs_enter := true
              end
              else if code = Runtime.stop_halt then
                result :=
                  Some
                    (finish
                       (`Halted
                         (match Bus.halted rt.Runtime.bus with Some c -> c | None -> 0)))
              else
                (* A guest exception was taken inside a helper; continue at
                   the vector. *)
                return_to_engine ())))
    end
  done;
  match !result with Some r -> r | None -> assert false
