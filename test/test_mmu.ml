module Mmu = Repro_mmu.Mmu
module Bus = Repro_machine.Bus
module Mem = Repro_arm.Mem

(* Direct unit tests of the page-table walker and the TLB structure
   shared with DBT-emitted code. *)

let make_bus () =
  Bus.create ~ram:(Bytes.make (1 lsl 20) '\000')
    ~dirty:(Repro_common.Pages.bitmap (1 lsl 20))

let write32 = Bus.write32

(* identity-map the page containing [va] with the given permissions *)
let map bus ~ttbr ~va ~pa ~writable ~user =
  let l1_index = (va lsr 22) land 0x3FF in
  let l2_base = ttbr + 0x1000 + (l1_index * 0x1000) in
  write32 bus (ttbr + (4 * l1_index)) (Mmu.l1_entry ~l2_base);
  let l2_index = (va lsr 12) land 0x3FF in
  write32 bus (l2_base + (4 * l2_index)) (Mmu.l2_entry ~pa ~writable ~user)

let test_walk_success () =
  let bus = make_bus () in
  let ttbr = 0x40000 in
  map bus ~ttbr ~va:0x1234_5000 ~pa:0x0008_9000 ~writable:true ~user:false;
  let e = Mmu.walk bus ~ttbr ~access:Mem.Load 0x1234_5678 in
  Alcotest.(check int) "physical page" 0x0008_9000 (Mmu.page_pa e);
  Alcotest.(check bool) "writable" true (Mmu.writable e);
  Alcotest.(check bool) "not user" false (Mmu.user e)

let test_walk_translation_fault () =
  let bus = make_bus () in
  match Mmu.walk bus ~ttbr:0x40000 ~access:Mem.Load 0xDEAD0000 with
  | exception Mem.Fault { vaddr = 0xDEAD0000; access = Mem.Load; kind = Mem.Translation } -> ()
  | _ -> Alcotest.fail "expected translation fault"

let test_perms () =
  let e = Mmu.l2_entry ~pa:0 ~writable:false ~user:false in
  Alcotest.(check bool) "kernel read must pass" true
    (Mmu.permits e ~access:Mem.Load ~privileged:true);
  Alcotest.(check bool) "user read of kernel page must fault" false
    (Mmu.permits e ~access:Mem.Load ~privileged:false);
  Alcotest.(check bool) "store to read-only page must fault" false
    (Mmu.permits e ~access:Mem.Store ~privileged:true);
  (* the fault kind a denied access reports (it sets the guest DFSR) *)
  let bus = make_bus () in
  let ttbr = 0x40000 in
  map bus ~ttbr ~va:0x0030_0000 ~pa:0x0008_9000 ~writable:false ~user:false;
  let cpu = Repro_arm.Cpu.create () in
  Repro_arm.Cpu.set_ttbr cpu ttbr;
  Repro_arm.Cpu.set_mmu_enabled cpu true;
  let translate ~access ~privileged =
    Mmu.translate bus cpu 0x0030_0124 ~access ~privileged
  in
  Alcotest.(check int) "kernel read translates" 0x0008_9124
    (translate ~access:Mem.Load ~privileged:true);
  (match translate ~access:Mem.Load ~privileged:false with
   | exception
       Mem.Fault { vaddr = 0x0030_0124; access = Mem.Load; kind = Mem.Permission } ->
     ()
   | _ -> Alcotest.fail "expected a permission fault on the user load");
  match translate ~access:Mem.Store ~privileged:true with
  | exception
      Mem.Fault { vaddr = 0x0030_0124; access = Mem.Store; kind = Mem.Permission } ->
    ()
  | _ -> Alcotest.fail "expected a permission fault on the kernel store"

let test_tlb_fill_lookup_flush () =
  let tlb = Array.make Mmu.Tlb.words 0 in
  Mmu.Tlb.flush tlb;
  let entry = Mmu.l2_entry ~pa:0x7000 ~writable:false ~user:true in
  Alcotest.(check (option int)) "miss before fill" None
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:false 0x3456);
  Mmu.Tlb.fill tlb ~privileged:false ~vaddr:0x3456 entry;
  Alcotest.(check (option int)) "read hit" (Some 0x7456)
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:false 0x3456);
  Alcotest.(check (option int)) "write miss (read-only)" None
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:true 0x3456);
  Alcotest.(check (option int)) "other bank misses" None
    (Mmu.Tlb.lookup tlb ~privileged:true ~write:false 0x3456);
  Mmu.Tlb.flush tlb;
  Alcotest.(check (option int)) "flushed" None
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:false 0x3456)

let test_tlb_non_user_page_not_filled_in_user_bank () =
  let tlb = Array.make Mmu.Tlb.words 0 in
  Mmu.Tlb.flush tlb;
  let entry = Mmu.l2_entry ~pa:0x9000 ~writable:true ~user:false in
  Mmu.Tlb.fill tlb ~privileged:false ~vaddr:0x1000 entry;
  Alcotest.(check (option int)) "kernel page never user-visible" None
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:false 0x1000)

let test_tlb_conflict_eviction () =
  let tlb = Array.make Mmu.Tlb.words 0 in
  Mmu.Tlb.flush tlb;
  let e1 = Mmu.l2_entry ~pa:0x10000 ~writable:true ~user:true in
  let e2 = Mmu.l2_entry ~pa:0x20000 ~writable:true ~user:true in
  (* same set: indexes 0x1000 and 0x1000 + entries*4096 *)
  let conflict = 0x1000 + (Mmu.Tlb.entries * 4096) in
  Mmu.Tlb.fill tlb ~privileged:true ~vaddr:0x1000 e1;
  Mmu.Tlb.fill tlb ~privileged:true ~vaddr:conflict e2;
  Alcotest.(check (option int)) "old entry evicted" None
    (Mmu.Tlb.lookup tlb ~privileged:true ~write:false 0x1000);
  Alcotest.(check (option int)) "new entry hits"
    (Some (0x20000 lor 0))
    (Mmu.Tlb.lookup tlb ~privileged:true ~write:false conflict)

let suite =
  [
    ( "mmu",
      [
        Alcotest.test_case "walk success" `Quick test_walk_success;
        Alcotest.test_case "walk translation fault" `Quick test_walk_translation_fault;
        Alcotest.test_case "permission checks" `Quick test_perms;
        Alcotest.test_case "tlb fill/lookup/flush" `Quick test_tlb_fill_lookup_flush;
        Alcotest.test_case "kernel pages invisible to user bank" `Quick
          test_tlb_non_user_page_not_filled_in_user_bank;
        Alcotest.test_case "direct-mapped eviction" `Quick test_tlb_conflict_eviction;
      ] );
  ]
