open Repro_common
module Exec = Repro_x86.Exec
module Bus = Repro_machine.Bus
module Cpu = Repro_arm.Cpu
module Mem = Repro_arm.Mem
module Mmu = Repro_mmu.Mmu
module Trace = Repro_observe.Trace
module Ledger = Repro_observe.Ledger
module Scope = Repro_perfscope.Scope

type t = {
  ctx : Exec.t;
  bus : Bus.t;
  cpu : Cpu.t;
  mutable mem : Mem.iface;
  dcache : Repro_arm.Decode_cache.t;
  mutable is_code_page : Word32.t -> bool;
  mutable pending_code_write : bool;
  mutable tb_override : int option;
  mutable suppress_code_write : bool;
  inject : Repro_faultinject.Faultinject.t option;
  mutable fault_producers : (Word32.t * Word32.t array) array;
  mutable corrupt_override : [ `None | `Rule_corrupt | `Livelock ] option;
  trace : Trace.t option;
  mutable ledger : Ledger.t option;
  mutable cov_static : Repro_covscope.Static.t option;
  scope : Scope.t option;
}

exception Load_error of Word32.t

let stop_exception = 1
let stop_halt = 2
let stop_code_write = 3

let create ?(ram_kib = 4096) ?inject ?trace ?ledger ?scope () =
  let ctx =
    Exec.create ~env_slots:Envspec.n_slots ~ram_size:(ram_kib * 1024)
      ~tlb_words:Mmu.Tlb.words ()
  in
  (* Trace timestamps are retired guest instructions — deterministic,
     comparable across runs, and free when tracing is off. *)
  (match trace with
  | Some tr ->
      Trace.set_clock tr (fun () ->
          ctx.Exec.stats.Repro_x86.Stats.guest_insns)
  | None -> ());
  Mmu.Tlb.flush ctx.Exec.tlb;
  let bus = Bus.create ~ram:ctx.Exec.ram in
  let cpu = Cpu.create () in
  let mem = Mmu.iface ?inject bus cpu in
  (* cp15 c8 writes must drop stale softMMU entries. *)
  let mem =
    {
      mem with
      Mem.flush_tlb =
        (fun () ->
          (match trace with
          | Some tr -> Trace.emit tr Trace.Tlb "flush"
          | None -> ());
          Mmu.Tlb.flush ctx.Exec.tlb);
    }
  in
  let rt =
    {
      ctx;
      bus;
      cpu;
      mem;
      (* 1K slots: 16K slots here raised the fleet benchmark's peak
         RSS by about 4 MiB. *)
      dcache = Repro_arm.Decode_cache.create ~bits:10;
      is_code_page = (fun _ -> false);
      pending_code_write = false;
      tb_override = None;
      suppress_code_write = false;
      inject;
      fault_producers = [||];
      corrupt_override = None;
      trace;
      ledger;
      cov_static = None;
      scope;
    }
  in
  (* Interpreter-path stores (helpers emulating whole instructions)
     must also notice writes into translated code. *)
  let store width ~privileged vaddr v =
    mem.Mem.store width ~privileged vaddr v;
    if rt.is_code_page (vaddr lsr 12) then rt.pending_code_write <- true
  in
  rt.mem <- { mem with Mem.store };
  rt

let env t = t.ctx.Exec.env
let stats t = t.ctx.Exec.stats
let privileged t = Cpu.mode_is_privileged (Cpu.mode t.cpu)

let load_image t origin words =
  Array.iteri
    (fun i w ->
      let addr = Word32.add origin (4 * i) in
      try Bus.write32 t.bus addr w with Bus.Bus_error -> raise (Load_error addr))
    words

let sync_env_to_cpu t = Envspec.env_to_cpu (env t) t.cpu
let sync_cpu_to_env t = Envspec.cpu_to_env t.cpu (env t)

let refresh_irq_pending t =
  let pending = Bus.irq_line t.bus && not (Cpu.irq_masked t.cpu) in
  (env t).(Envspec.irq_pending) <- (if pending then 1 else 0);
  (* Raise->deliver latency starts ticking the first time the line is
     deliverable; purely observational (clock = retired guest insns). *)
  match t.scope with
  | Some sc when pending ->
    Scope.note_irq_raised sc ~at:(stats t).Repro_x86.Stats.guest_insns
  | _ -> ()

let take_guest_exception t kind ~pc_of_faulting_insn =
  sync_env_to_cpu t;
  Cpu.take_exception t.cpu kind ~pc_of_faulting_insn;
  sync_cpu_to_env t;
  refresh_irq_pending t
