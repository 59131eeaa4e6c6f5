open Repro_common
module Exec = Repro_x86.Exec
module X = Repro_x86.Insn
module Stats = Repro_x86.Stats
module Cpu = Repro_arm.Cpu
module Mem = Repro_arm.Mem
module Interp = Repro_arm.Interp
module Bus = Repro_machine.Bus
module Mmu = Repro_mmu.Mmu

(* Helper argument registers. rdx/rcx rather than SysV's rdi/rsi:
   the rule engine pins guest r1/r2 into rsi/rdi, and argument setup
   must not clobber pinned state. *)
let arg0_reg = X.rdx
let arg1_reg = X.rcx

let h_interp_one = 0
let h_mmu_load_w = 1
let h_mmu_load_b = 2
let h_mmu_store_w = 3
let h_mmu_store_b = 4
let h_mmu_load_h = 5
let h_mmu_store_h = 6

let mmu_helper ~store (w : Repro_arm.Insn.width) =
  match (store, w) with
  | false, Word -> h_mmu_load_w
  | false, Byte -> h_mmu_load_b
  | false, Half -> h_mmu_load_h
  | true, Word -> h_mmu_store_w
  | true, Byte -> h_mmu_store_b
  | true, Half -> h_mmu_store_h

let charge (rt : Runtime.t) tag n =
  Stats.charge_tag (Runtime.stats rt) tag n;
  (Runtime.stats rt).Stats.helper_insns <- (Runtime.stats rt).Stats.helper_insns + n

let stop_exception () = raise (Exec.Helper_stop { code = Runtime.stop_exception; arg = 0 })
let stop_halt () = raise (Exec.Helper_stop { code = Runtime.stop_halt; arg = 0 })

let stop_code_write () =
  raise (Exec.Helper_stop { code = Runtime.stop_code_write; arg = 0 })

let check_halt (rt : Runtime.t) =
  match Bus.halted rt.Runtime.bus with Some _ -> stop_halt () | None -> ()

(* Emulate one guest instruction on the architectural mirror. env is
   synced in (registers/PC/flags; lazy flag parse is part of the env
   read), the reference interpreter steps once, and the result is
   synced back. A taken guest exception ends the TB. *)
let interp_one (rt : Runtime.t) =
  let env = Runtime.env rt in
  charge rt X.Tag_glue (Envspec.parse_packed env);
  Runtime.sync_env_to_cpu rt;
  charge rt X.Tag_glue (Costs.interp_one ());
  (* classify for the Table I profile: emulated system-level vs merely
     uncovered computational instructions. This fetch stays separate
     from the step's own (both make their fault draws), but the word
     decodes once: the step hits the cache. *)
  (match rt.Runtime.mem.Mem.fetch ~privileged:(Runtime.privileged rt) env.(Envspec.pc) with
  | word -> (
    match Repro_arm.Decode_cache.decode rt.Runtime.dcache word with
    | Ok insn ->
      if Repro_arm.Insn.is_system_level insn then
        (Runtime.stats rt).Stats.sys_insns <- (Runtime.stats rt).Stats.sys_insns + 1
    | Error _ -> ())
  | exception Mem.Fault _ -> ());
  (match Interp.step rt.Runtime.dcache rt.Runtime.cpu rt.Runtime.mem ~irq:false with
  | Interp.Stepped ->
    Runtime.sync_cpu_to_env rt;
    Runtime.refresh_irq_pending rt;
    check_halt rt;
    if rt.Runtime.pending_code_write then begin
      rt.Runtime.pending_code_write <- false;
      if rt.Runtime.suppress_code_write then rt.Runtime.suppress_code_write <- false
      else
        (* the instruction completed and env.pc points past it, so the
           engine resumes cleanly after the flush *)
        stop_code_write ()
    end
  | Interp.Took_exception _ ->
    charge rt X.Tag_glue (Costs.exception_entry ());
    Runtime.sync_cpu_to_env rt;
    Runtime.refresh_irq_pending rt;
    stop_exception ()
  | Interp.Decode_error _ ->
    (* Undecodable word (e.g. a jump into data): architecturally an
       UNDEF. Enter the guest's undefined-instruction vector instead of
       killing the process. *)
    charge rt X.Tag_glue (Costs.exception_entry ());
    Runtime.take_guest_exception rt Cpu.Undefined_insn
      ~pc_of_faulting_insn:env.(Envspec.pc);
    stop_exception ());
  0

let data_abort (rt : Runtime.t) (f : Mem.fault) =
  Cpu.set_dfar rt.Runtime.cpu f.Mem.vaddr;
  Cpu.set_dfsr rt.Runtime.cpu (Mem.dfsr_status f.Mem.kind);
  charge rt X.Tag_glue (Costs.exception_entry ());
  (* env registers are up to date (coordination happened before the
     call); sync them into the mirror so exception entry banks the
     right values, then resync. *)
  Runtime.sync_env_to_cpu rt;
  let pc = (Runtime.env rt).(Envspec.pc) in
  (* If the translator scheduled this access ahead of
     architecturally-earlier instructions (define-before-use
     hoisting), those have not executed in host order yet. Replay them
     through the interpreter so exception entry banks program-order
     state; independence of the hoisted block guarantees their inputs
     are still intact. *)
  (match
     Array.find_opt (fun (fpc, _) -> fpc = pc) rt.Runtime.fault_producers
   with
  | Some (_, producers) ->
    Array.iter
      (fun ppc ->
        Cpu.set_reg rt.Runtime.cpu 15 ppc;
        charge rt X.Tag_glue (Costs.interp_one ());
        ignore (Interp.step rt.Runtime.dcache rt.Runtime.cpu rt.Runtime.mem ~irq:false))
      producers
  | None -> ());
  Cpu.take_exception rt.Runtime.cpu Cpu.Data_abort ~pc_of_faulting_insn:pc;
  Runtime.sync_cpu_to_env rt;
  Runtime.refresh_irq_pending rt;
  stop_exception ()

(* Full softMMU translation in "C": TLB probe, walk + fill on miss,
   MMIO dispatch. Returns the physical address (>= 0) for RAM pages, or
   performs the device access directly and returns [lnot v] for its
   32-bit result [v] (0 for a store). A fault raises [Mem.Fault]. *)
let resolve (rt : Runtime.t) ~(access : Mem.access) ~width vaddr value =
  let privileged = Runtime.privileged rt in
  let cpu = rt.Runtime.cpu in
  let bus = rt.Runtime.bus in
  let tlb = rt.Runtime.ctx.Exec.tlb in
  let write = access = Mem.Store in
  if not (Mem.aligned width vaddr) then Mem.fault vaddr access Mem.Alignment
  else begin
    charge rt X.Tag_mmu (Costs.mmu_helper_hit ());
    (* Fault point: a spurious TLB invalidation right before the probe
       forces the miss path — guest-invisible, cost-only. *)
    (match rt.Runtime.inject with
    | Some inj
      when Repro_faultinject.Faultinject.fire inj Repro_faultinject.Faultinject.Tlb_flush
      ->
      Mmu.Tlb.flush tlb
    | _ -> ());
    let paddr = Mmu.Tlb.lookup tlb ~privileged ~write vaddr in
    if paddr >= 0 then paddr
    else begin
      (* Miss path: translate (or identity when the MMU is off). *)
      (Runtime.stats rt).Stats.tlb_misses <- (Runtime.stats rt).Stats.tlb_misses + 1;
      (match rt.Runtime.trace with
      | Some tr ->
        Repro_observe.Trace.emit tr ~a:vaddr
          ~b:(if write then 1 else 0)
          Repro_observe.Trace.Tlb "miss"
      | None -> ());
      charge rt X.Tag_mmu (Costs.mmu_slow_path ());
      let compute_entry () = Mmu.translate_entry bus cpu vaddr ~access ~privileged in
      (* Fault point: the walk result comes back corrupted; detection
         (modelled table-entry parity) discards it and re-walks. The
         draw follows the first walk whether or not it faulted. *)
      let corrupted () =
        match rt.Runtime.inject with
        | Some inj
          when Repro_faultinject.Faultinject.fire inj
                 Repro_faultinject.Faultinject.Walk_corrupt ->
          charge rt X.Tag_mmu (Costs.mmu_slow_path ());
          true
        | _ -> false
      in
      let entry =
        match compute_entry () with
        | entry -> if corrupted () then compute_entry () else entry
        | exception (Mem.Fault _ as fault) ->
          if corrupted () then compute_entry () else raise fault
      in
      let paddr = Mmu.page_pa entry lor (vaddr land (Mmu.page_size - 1)) in
      if Bus.is_ram bus (Mmu.page_pa entry) then begin
        (* translated-code pages stay write-protected in the TLB so
           every store to them takes this slow path and triggers
           invalidation *)
        let fill_entry =
          if rt.Runtime.is_code_page (vaddr lsr 12) then
            Mmu.l2_entry ~pa:entry ~writable:false ~user:(Mmu.user entry)
          else entry
        in
        Mmu.Tlb.fill tlb ~privileged ~vaddr fill_entry;
        paddr
      end
      else begin
        (* MMIO: never cached in the TLB; dispatch through the bus. *)
        charge rt X.Tag_mmu (Costs.io_access ());
        let v =
          match
            match (access, width) with
            | Mem.Store, Mem.W32 -> Bus.write32 bus paddr value; 0
            | Mem.Store, Mem.W8 -> Bus.write8 bus paddr value; 0
            | Mem.Store, Mem.W16 -> Bus.write16 bus paddr value; 0
            | (Mem.Load | Mem.Fetch), Mem.W32 -> Bus.read32 bus paddr
            | (Mem.Load | Mem.Fetch), Mem.W8 -> Bus.read8 bus paddr
            | (Mem.Load | Mem.Fetch), Mem.W16 -> Bus.read16 bus paddr
          with
          | v -> v
          | exception Bus.Bus_error -> Mem.fault vaddr access Mem.Bus
        in
        check_halt rt;
        lnot v
      end
    end
  end

let mmu_resolve (rt : Runtime.t) ~access ~width vaddr value =
  match resolve rt ~access ~width vaddr value with
  | r -> r
  | exception Mem.Fault f -> data_abort rt f

let mmu_load (rt : Runtime.t) ~width vaddr =
  let paddr = mmu_resolve rt ~access:Mem.Load ~width vaddr 0 in
  if paddr < 0 then lnot paddr
  else
    let ram = rt.Runtime.ctx.Exec.ram in
    match width with
    | Mem.W8 -> Ram.get8 ram paddr
    | Mem.W16 -> Ram.get16 ram paddr
    | Mem.W32 -> Ram.get32 ram paddr

let mmu_store (rt : Runtime.t) ~width vaddr value =
  let paddr = mmu_resolve rt ~access:Mem.Store ~width vaddr value in
  if paddr >= 0 then begin
    (let ram = rt.Runtime.ctx.Exec.ram in
     match width with
     | Mem.W8 -> Ram.set8 ram paddr value
     | Mem.W16 -> Ram.set16 ram paddr value
     | Mem.W32 -> Ram.set32 ram paddr value);
    (* self-modifying code: the store completed; make the engine drop
       the (now stale) translations and resume at this very store,
       whose re-execution is idempotent *)
    if rt.Runtime.is_code_page (vaddr lsr 12) then
      if rt.Runtime.suppress_code_write then
        (* this store belongs to the singleton TB just retranslated
           after an invalidation — let it complete *)
        rt.Runtime.suppress_code_write <- false
      else begin
        charge rt X.Tag_glue (Costs.exception_entry ());
        stop_code_write ()
      end
  end;
  0

let install (rt : Runtime.t) =
  let dispatch (ctx : Exec.t) id =
    charge rt X.Tag_glue (Costs.helper_call_overhead ());
    let arg0 = ctx.Exec.regs.(arg0_reg) and arg1 = ctx.Exec.regs.(arg1_reg) in
    if id = h_interp_one then interp_one rt
    else if id = h_mmu_load_w then mmu_load rt ~width:Mem.W32 arg0
    else if id = h_mmu_load_b then mmu_load rt ~width:Mem.W8 arg0
    else if id = h_mmu_store_w then mmu_store rt ~width:Mem.W32 arg0 arg1
    else if id = h_mmu_store_b then mmu_store rt ~width:Mem.W8 arg0 arg1
    else if id = h_mmu_load_h then mmu_load rt ~width:Mem.W16 arg0
    else if id = h_mmu_store_h then mmu_store rt ~width:Mem.W16 arg0 arg1
    else failwith (Printf.sprintf "Helpers.dispatch: unknown helper %d" id)
  in
  rt.Runtime.ctx.Exec.helper <- dispatch

let mmu_access_cost_estimate () = Costs.helper_call_overhead () + Costs.mmu_helper_hit ()
