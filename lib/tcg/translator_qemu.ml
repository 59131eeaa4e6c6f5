open Repro_common
module A = Repro_arm.Insn
module X = Repro_x86.Insn
module Mem = Repro_arm.Mem
module Prog = Repro_x86.Prog
module Attr = Repro_covscope.Attr

let max_tb_insns = 48

(* Shared by both translators: fetch and decode up to a TB's worth of
   guest instructions starting at [pc]. Stops at TB enders, the length
   limit, a page boundary, or an undecodable word. *)
let fetch_block ?cap (rt : Runtime.t) ~pc =
  let privileged = Runtime.privileged rt in
  let cap =
    match cap with
    | Some n -> n
    | None -> (
      match rt.Runtime.tb_override with Some n -> n | None -> max_tb_insns)
  in
  let rec grab acc pc_cur n =
    if n >= cap then List.rev acc
    else
      match rt.Runtime.mem.Mem.fetch ~privileged pc_cur with
      | exception Mem.Fault _ -> List.rev acc
      | word -> (
        match Repro_arm.Decode_cache.decode rt.Runtime.dcache word with
        | Error _ -> List.rev acc
        | Ok insn ->
          let acc = insn :: acc in
          let ends =
            A.is_branch insn
            || (match insn.A.op with
               | A.Svc _ | A.Udf _ | A.Cps _ | A.Mcr _
               | A.Msr { write_control = true; _ } -> true
               | A.Ldm { regs; _ } -> regs land 0x8000 <> 0
               | _ -> false)
            || (Word32.add pc_cur 4) land 0xFFF = 0
          in
          if ends then List.rev acc else grab acc (Word32.add pc_cur 4) (n + 1))
  in
  grab [] pc 0

(* Last rung of the bailout ladder: a TB that hands the single guest
   instruction at [pc] to the interpreter helper. Undecodable words
   take their Undefined_insn exception inside the helper; over-complex
   instructions execute one at a time. Keeps the TB-head interrupt
   poll so delivery latency matches ordinary blocks. *)
let emulate_one_tb ?insn (rt : Runtime.t) cache ~pc =
  let privileged = Runtime.privileged rt in
  (* Interpreter tier; the decoded instruction (when the word was
     decodable) supplies the opcode class, otherwise the retirement is
     charged to the undefined-instruction class. *)
  let attr =
    match insn with
    | Some i -> Attr.pack ~tier:Attr.Interp i
    | None -> Attr.pack_undecodable ~tier:Attr.Interp
  in
  let b = Prog.builder () in
  let irq_label = Prog.fresh_label b in
  Prog.emit b ~tag:X.Tag_irq_check (X.Count X.Cnt_irq_poll);
  Prog.emit b ~tag:X.Tag_irq_check
    (X.Alu { op = X.Cmp; dst = X.Mem (X.env_slot Envspec.irq_pending); src = X.Imm 0 });
  Prog.emit b ~tag:X.Tag_irq_check (X.Jcc { cc = X.NE; target = irq_label });
  Prog.emit b (X.Count (X.Cnt_guest_insn attr));
  Prog.emit b ~tag:X.Tag_glue
    (X.Mov { width = X.W32; dst = X.Mem (X.env_slot Envspec.pc); src = X.Imm pc });
  Prog.emit b ~tag:X.Tag_glue (X.Call_helper { id = Helpers.h_interp_one });
  Prog.emit b ~tag:X.Tag_glue (X.Exit { slot = 0 });
  Prog.emit b (X.Label irq_label);
  Prog.emit b ~tag:X.Tag_irq_check
    (X.Mov { width = X.W32; dst = X.Mem (X.env_slot Envspec.pc); src = X.Imm pc });
  Prog.emit b ~tag:X.Tag_irq_check (X.Exit { slot = Tb.slot_irq });
  let exits = Array.make Tb.exit_slots Tb.Indirect in
  exits.(Tb.slot_irq) <- Tb.Irq_deliver;
  {
    Tb.id = Tb.Cache.next_id cache;
    guest_pc = pc;
    privileged;
    mmu_on = Repro_arm.Cpu.mmu_enabled rt.Runtime.cpu;
    prog = Prog.finalize b;
    exits;
    links = Array.make Tb.exit_slots None;
    guest_insns = [||];
    guest_len = 1;
    fault_producers = [||];
    injected = `None;
    prov = [||];
    hot = 0;
    region_ids = [||];
    meta = Tb.No_meta;
  }

let build (rt : Runtime.t) cache ~pc ~insns =
  let privileged = Runtime.privileged rt in
  let exits = Array.make Tb.exit_slots Tb.Indirect in
  exits.(Tb.slot_irq) <- Tb.Irq_deliver;
  let used = ref [] in
  let alloc_direct target =
    match List.find_opt (fun (_, t) -> t = Some target) !used with
    | Some (slot, _) -> slot
    | None ->
      let slot = List.length !used in
      if slot >= Tb.slot_irq then raise Tb.Tb_too_complex;
      exits.(slot) <- Tb.Direct target;
      used := !used @ [ (slot, Some target) ];
      slot
  in
  let alloc_indirect () =
    match List.find_opt (fun (_, t) -> t = None) !used with
    | Some (slot, _) -> slot
    | None ->
      let slot = List.length !used in
      if slot >= Tb.slot_irq then raise Tb.Tb_too_complex;
      exits.(slot) <- Tb.Indirect;
      used := !used @ [ (slot, None) ];
      slot
  in
  let fctx = Frontend.create ~alloc_direct ~alloc_indirect () in
  let rec go pc_cur = function
    | [] -> Frontend.emit_goto fctx pc_cur
    | insn :: rest ->
      let ended = Frontend.translate_insn fctx ~pc:pc_cur insn in
      if ended then assert (rest = []) else go (Word32.add pc_cur 4) rest
  in
  go pc insns;
  let builder = Prog.builder () in
  Backend.lower builder ~privileged ~tb_pc:pc (Frontend.ops fctx);
  let prog = Prog.finalize builder in
  {
    Tb.id = Tb.Cache.next_id cache;
    guest_pc = pc;
    privileged;
    mmu_on = Repro_arm.Cpu.mmu_enabled rt.Runtime.cpu;
    prog;
    exits;
    links = Array.make Tb.exit_slots None;
    guest_insns = Array.of_list insns;
    guest_len = List.length insns;
    fault_producers = [||];
    injected = `None;
    prov = [||];
    hot = 0;
    region_ids = [||];
    meta = Tb.No_meta;
  }

let translate (rt : Runtime.t) cache ~pc =
  let privileged = Runtime.privileged rt in
  match rt.Runtime.mem.Mem.fetch ~privileged pc with
  | exception Mem.Fault f -> Error f
  | first_word ->
    let insn =
      match Repro_arm.Decode_cache.decode rt.Runtime.dcache first_word with
      | Ok i -> Some i
      | Error _ -> None
    in
    let start_cap =
      match rt.Runtime.tb_override with Some n -> n | None -> max_tb_insns
    in
    (* Resource overflows (exit slots, temps) retry with a shorter
       block; a single undecodable or still-too-complex instruction
       falls back to the interpreter-helper TB. *)
    let rec attempt cap =
      match fetch_block rt ~cap ~pc with
      | [] -> Ok (emulate_one_tb ?insn rt cache ~pc)
      | insns -> (
        match build rt cache ~pc ~insns with
        | tb -> Ok tb
        | exception Tb.Tb_too_complex ->
          if cap <= 1 then Ok (emulate_one_tb ?insn rt cache ~pc)
          else attempt (max 1 (cap / 2)))
    in
    attempt start_cap
