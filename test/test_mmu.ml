module Mmu = Repro_mmu.Mmu
module Bus = Repro_machine.Bus
module Mem = Repro_arm.Mem

(* Direct unit tests of the page-table walker and the TLB structure
   shared with DBT-emitted code. *)

let make_bus () =
  Bus.create ~ram:(Bytes.make (1 lsl 20) '\000')
    ~dirty:(Repro_common.Pages.bitmap (1 lsl 20))

let write32 bus addr v =
  match Bus.write32 bus addr v with Ok () -> () | Error () -> Alcotest.fail "bus write"

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
  match Mmu.walk bus ~ttbr 0x1234_5678 with
  | Ok e ->
    Alcotest.(check int) "physical page" 0x0008_9000 e.Mmu.page_pa;
    Alcotest.(check bool) "writable" true e.Mmu.writable;
    Alcotest.(check bool) "not user" false e.Mmu.user
  | Error _ -> Alcotest.fail "walk failed"

let test_walk_translation_fault () =
  let bus = make_bus () in
  match Mmu.walk bus ~ttbr:0x40000 0xDEAD0000 with
  | Error Mem.Translation -> ()
  | _ -> Alcotest.fail "expected translation fault"

let test_perms () =
  let e = { Mmu.page_pa = 0; writable = false; user = false } in
  (match Mmu.check_perms e ~access:Mem.Load ~privileged:true with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "kernel read must pass");
  (match Mmu.check_perms e ~access:Mem.Load ~privileged:false with
  | Error Mem.Permission -> ()
  | _ -> Alcotest.fail "user read of kernel page must fault");
  match Mmu.check_perms e ~access:Mem.Store ~privileged:true with
  | Error Mem.Permission -> ()
  | _ -> Alcotest.fail "store to read-only page must fault"

let test_tlb_fill_lookup_flush () =
  let tlb = Array.make Mmu.Tlb.words 0 in
  Mmu.Tlb.flush tlb;
  let entry = { Mmu.page_pa = 0x7000; writable = false; user = true } in
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
  let entry = { Mmu.page_pa = 0x9000; writable = true; user = false } in
  Mmu.Tlb.fill tlb ~privileged:false ~vaddr:0x1000 entry;
  Alcotest.(check (option int)) "kernel page never user-visible" None
    (Mmu.Tlb.lookup tlb ~privileged:false ~write:false 0x1000)

let test_tlb_conflict_eviction () =
  let tlb = Array.make Mmu.Tlb.words 0 in
  Mmu.Tlb.flush tlb;
  let e1 = { Mmu.page_pa = 0x10000; writable = true; user = true } in
  let e2 = { Mmu.page_pa = 0x20000; writable = true; user = true } in
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
