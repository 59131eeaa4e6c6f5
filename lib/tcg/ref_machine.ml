open Repro_common
module Cpu = Repro_arm.Cpu
module Bus = Repro_machine.Bus
module Interp = Repro_arm.Interp
module Mmu = Repro_mmu.Mmu

type t = {
  cpu : Cpu.t;
  bus : Bus.t;
  mem : Repro_arm.Mem.iface;
  dcache : Repro_arm.Decode_cache.t;
}

let create ?(ram_kib = 4096) () =
  let bus = Bus.create ~ram:(Ram.create (ram_kib * 1024)) in
  let cpu = Cpu.create () in
  let mem = Mmu.iface bus cpu in
  { cpu; bus; mem; dcache = Repro_arm.Decode_cache.create ~bits:14 }

let load_image t origin words =
  Array.iteri
    (fun i w ->
      let addr = Word32.add origin (4 * i) in
      try Bus.write32 t.bus addr w with Bus.Bus_error -> raise (Runtime.Load_error addr))
    words

type outcome = Halted of Word32.t | Step_limit | Decode_error of string

let run t ~max_steps =
  let iterations = ref 0 in
  let rec loop n =
    incr iterations;
    if n >= max_steps || !iterations > 4 * max_steps then (Step_limit, n)
    else
      match Bus.halted t.bus with
      | Some code -> (Halted code, n)
      | None -> (
        match Interp.step t.dcache t.cpu t.mem ~irq:(Bus.irq_line t.bus) with
        | Interp.Stepped ->
          Bus.tick t.bus 1;
          loop (n + 1)
        | Interp.Took_exception k ->
          (* IRQ delivery and prefetch aborts happen before the
             instruction executes; everything else retires it — the
             same counting the DBT engines' Count markers produce. *)
          let retired =
            match k with
            | Cpu.Irq | Cpu.Prefetch_abort -> 0
            | Cpu.Reset | Cpu.Undefined_insn | Cpu.Supervisor_call | Cpu.Data_abort -> 1
          in
          Bus.tick t.bus retired;
          loop (n + retired)
        | Interp.Decode_error e -> (Decode_error e, n))
  in
  loop 0
