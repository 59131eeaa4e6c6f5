open Repro_common
module Bus = Repro_machine.Bus
module Mem = Repro_arm.Mem
module Cpu = Repro_arm.Cpu

let page_size = 4096
let page_mask = 0xFFFFF000

let l1_entry ~l2_base = (l2_base land page_mask) lor 1

let l2_entry ~pa ~writable ~user =
  (pa land page_mask) lor 1
  lor (if writable then 2 else 0)
  lor if user then 4 else 0

type entry = Word32.t

let page_pa e = e land page_mask
let writable e = e land 2 <> 0
let user e = e land 4 <> 0

(* A page-table read; a bus error is a [Bus] fault of the access that
   walked. *)
let read_table bus ~access vaddr addr =
  match Bus.read32 bus addr with
  | v -> v
  | exception Bus.Bus_error -> Mem.fault vaddr access Mem.Bus

let walk bus ~ttbr ~access vaddr =
  let l1 = read_table bus ~access vaddr ((ttbr land page_mask) + (4 * ((vaddr lsr 22) land 0x3FF))) in
  if l1 land 1 = 0 then Mem.fault vaddr access Mem.Translation
  else
    let l2 = read_table bus ~access vaddr ((l1 land page_mask) + (4 * ((vaddr lsr 12) land 0x3FF))) in
    if l2 land 1 = 0 then Mem.fault vaddr access Mem.Translation else l2

let permits entry ~access ~privileged =
  (privileged || user entry)
  && match (access : Mem.access) with Store -> writable entry | Load | Fetch -> true

module Tlb = struct
  let entries = 256
  let stride_words = 4
  let words = 2 * entries * stride_words
  let bank_offset_words ~privileged = if privileged then entries * stride_words else 0
  let index vaddr = (vaddr lsr 12) land (entries - 1)

  let set_base_words ~privileged vaddr =
    bank_offset_words ~privileged + (index vaddr * stride_words)

  let invalid_tag = 0xFFFFFFFF

  let flush tlb = Array.fill tlb 0 (Array.length tlb) invalid_tag

  let fill tlb ~privileged ~vaddr entry =
    if privileged || user entry then begin
      let base = set_base_words ~privileged vaddr in
      let tag = vaddr land page_mask in
      tlb.(base) <- tag;
      tlb.(base + 1) <- (if writable entry then tag else invalid_tag);
      tlb.(base + 2) <- page_pa entry
    end

  let clear_write_tag tlb vaddr =
    List.iter
      (fun privileged ->
        let base = set_base_words ~privileged vaddr in
        if tlb.(base) = vaddr land page_mask || tlb.(base + 1) = vaddr land page_mask
        then tlb.(base + 1) <- invalid_tag)
      [ false; true ]

  let lookup tlb ~privileged ~write vaddr =
    let base = set_base_words ~privileged vaddr in
    let tag = vaddr land page_mask in
    let stored = if write then tlb.(base + 1) else tlb.(base) in
    if stored = tag then tlb.(base + 2) lor (vaddr land (page_size - 1)) else -1
end

let translate_entry bus cpu vaddr ~access ~privileged =
  if not (Cpu.mmu_enabled cpu) then l2_entry ~pa:vaddr ~writable:true ~user:true
  else
    let entry = walk bus ~ttbr:(Cpu.get_ttbr cpu) ~access vaddr in
    if permits entry ~access ~privileged then entry
    else Mem.fault vaddr access Mem.Permission

let translate bus cpu vaddr ~access ~privileged =
  page_pa (translate_entry bus cpu vaddr ~access ~privileged) lor (vaddr land (page_size - 1))

(* [walk]'s steps over RAM words alone; [Exit] where the fetch faults. *)
let peek_fetch bus ~ttbr ~mmu_on ~privileged vaddr =
  let word a = if Bus.is_ram bus a then Ram.get32 bus.Bus.ram a else raise Exit in
  let valid e = if e land 1 = 0 then raise Exit else e in
  match
    if vaddr land 3 <> 0 then raise Exit;
    if not mmu_on then word vaddr
    else
      let l1 = valid (word ((ttbr land page_mask) + (4 * ((vaddr lsr 22) land 0x3FF)))) in
      let l2 = valid (word ((l1 land page_mask) + (4 * ((vaddr lsr 12) land 0x3FF)))) in
      if not (permits l2 ~access:Mem.Fetch ~privileged) then raise Exit;
      word (page_pa l2 lor (vaddr land (page_size - 1)))
  with
  | w -> Some w
  | exception Exit -> None

(* With an injector armed, a walk result can come back corrupted; the
   corruption is detected (modelled table-entry parity) and the walk is
   simply redone — guest-invisible, cost-only. The draw comes after the
   first walk whether or not that walk faulted. *)
let walk_corrupted inject cpu =
  match inject with
  | Some inj ->
    Cpu.mmu_enabled cpu
    && Repro_faultinject.Faultinject.fire inj Repro_faultinject.Faultinject.Walk_corrupt
  | None -> false

let iface ?inject bus cpu : Mem.iface =
  let xlate vaddr ~access ~privileged =
    match translate bus cpu vaddr ~access ~privileged with
    | paddr ->
      if walk_corrupted inject cpu then translate bus cpu vaddr ~access ~privileged else paddr
    | exception (Mem.Fault _ as fault) ->
      if walk_corrupted inject cpu then translate bus cpu vaddr ~access ~privileged
      else raise fault
  in
  let load width ~privileged vaddr =
    if not (Mem.aligned width vaddr) then Mem.fault vaddr Mem.Load Mem.Alignment
    else
      let paddr = xlate vaddr ~access:Mem.Load ~privileged in
      match
        match width with
        | Mem.W8 -> Bus.read8 bus paddr
        | Mem.W16 -> Bus.read16 bus paddr
        | Mem.W32 -> Bus.read32 bus paddr
      with
      | v -> v
      | exception Bus.Bus_error -> Mem.fault vaddr Mem.Load Mem.Bus
  in
  let store width ~privileged vaddr v =
    if not (Mem.aligned width vaddr) then Mem.fault vaddr Mem.Store Mem.Alignment
    else
      let paddr = xlate vaddr ~access:Mem.Store ~privileged in
      match
        match width with
        | Mem.W8 -> Bus.write8 bus paddr v
        | Mem.W16 -> Bus.write16 bus paddr v
        | Mem.W32 -> Bus.write32 bus paddr v
      with
      | () -> ()
      | exception Bus.Bus_error -> Mem.fault vaddr Mem.Store Mem.Bus
  in
  let fetch ~privileged vaddr =
    if vaddr land 3 <> 0 then Mem.fault vaddr Mem.Fetch Mem.Alignment
    else
      let paddr = xlate vaddr ~access:Mem.Fetch ~privileged in
      match Bus.read32 bus paddr with
      | v -> v
      | exception Bus.Bus_error -> Mem.fault vaddr Mem.Fetch Mem.Bus
  in
  { Mem.load; store; fetch; flush_tlb = (fun () -> ()) }
