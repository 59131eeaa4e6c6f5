open Repro_common
module Exec = Repro_x86.Exec
module Bus = Repro_machine.Bus
module Cpu = Repro_arm.Cpu
module Mem = Repro_arm.Mem
module Mmu = Repro_mmu.Mmu
module Trace = Repro_observe.Trace

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
  trace : Trace.t option;
  observer : (Window.t -> unit) option;
  mutable irq_raised_at : int;
}

exception Load_error of Word32.t

let stop_exception = 1
let stop_halt = 2
let stop_code_write = 3

let create ?(ram_kib = 4096) ?inject ?trace ?observer () =
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
      trace;
      observer;
      irq_raised_at = -1;
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
  if pending && t.irq_raised_at < 0 then
    t.irq_raised_at <- (stats t).Repro_x86.Stats.guest_insns

let take_guest_exception t kind ~pc_of_faulting_insn =
  sync_env_to_cpu t;
  Cpu.take_exception t.cpu kind ~pc_of_faulting_insn;
  sync_cpu_to_env t;
  refresh_irq_pending t
