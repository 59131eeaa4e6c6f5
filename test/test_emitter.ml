open Repro_arm
module D = Repro_dbt
module X = Repro_x86.Insn
module Prog = Repro_x86.Prog

(* White-box tests of the rule-based emitter: the optimization levels
   must change the *static shape* of the emitted coordination code in
   exactly the ways the paper's figures describe. *)

let ruleset = lazy (Repro_rules.Builtin.ruleset ())

(* [insns] as a plain TB at guest PC 0 or, given [tail] chunks
   ([(pc, insns)] in execution order), as the head chunk of a region. *)
let emit ?(opt = D.Opt.full) ?elide ?entry_conv ?(tail = []) insns =
  let chunk (pc, insns) =
    let insns = Array.of_list insns in
    { D.Emitter.pc; insns; origins = Array.mapi (fun i _ -> i) insns; hoists = 0 }
  in
  D.Emitter.emit ~opt ~ruleset:(Lazy.force ruleset) ~privileged:false
    ~chunks:(Array.of_list (List.map chunk ((0, insns) :: tail)))
    ?elide_flag_save:elide ?entry_conv ()

let count_in prog p = Array.fold_left (fun n i -> if p i then n + 1 else n) 0 prog.Prog.code

let count_sync_markers prog =
  count_in prog (function X.Count X.Cnt_sync_op -> true | _ -> false)

let assemble body =
  let a = Asm.create () in
  body a;
  snd (Asm.assemble_insns a) |> Array.to_list

(* Fig. 9: consecutive same-condition instructions share one
   Sync-restore and one guard under III-C-1. *)
let test_fig9_run_grouping () =
  let block =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.add a ~cond:Cond.EQ 1 1 1;
        Asm.add a ~cond:Cond.EQ 2 2 2;
        Asm.add a ~cond:Cond.EQ 3 3 3;
        Asm.branch_to a ~cond:Cond.NE "n";
        Asm.label a "n")
  in
  let base = emit ~opt:D.Opt.base block in
  let full = emit ~opt:D.Opt.full block in
  let jcc prog = count_in prog (function X.Jcc _ -> true | _ -> false) in
  (* base: one guard per conditional insn (+ branch + irq check);
     full: a single guard for the run *)
  Alcotest.(check bool)
    (Printf.sprintf "guards shrink (%d -> %d)" (jcc base.D.Emitter.prog)
       (jcc full.D.Emitter.prog))
    true
    (jcc full.D.Emitter.prog < jcc base.D.Emitter.prog);
  Alcotest.(check bool)
    (Printf.sprintf "sync ops shrink (%d -> %d)"
       (count_sync_markers base.D.Emitter.prog)
       (count_sync_markers full.D.Emitter.prog))
    true
    (count_sync_markers full.D.Emitter.prog < count_sync_markers base.D.Emitter.prog)

(* Fig. 10: consecutive memory accesses share coordination under
   III-C-2. *)
let test_fig10_consecutive_memory () =
  let block =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.str a 1 6 0;
        Asm.str a 2 6 4;
        Asm.ldr a 3 6 8;
        Asm.branch_to a ~cond:Cond.NE "n";
        Asm.label a "n")
  in
  let base = emit ~opt:D.Opt.base block in
  let elim = emit ~opt:D.Opt.with_elimination block in
  Alcotest.(check bool) "coordination shrinks" true
    (Prog.static_count elim.D.Emitter.prog < Prog.static_count base.D.Emitter.prog)

(* Fig. 8: the packed save is a handful of instructions, the parsed
   save is ~3x that. *)
let test_fig8_static_shape () =
  let block = assemble (fun a -> Asm.cmp a 0 5; Asm.svc a 0) in
  let parsed = emit ~opt:D.Opt.base block in
  let packed = emit ~opt:D.Opt.reduction_only block in
  Alcotest.(check bool)
    (Printf.sprintf "packed (%d) well below parsed (%d)"
       (Prog.static_count packed.D.Emitter.prog)
       (Prog.static_count parsed.D.Emitter.prog))
    true
    (Prog.static_count packed.D.Emitter.prog + 6
    <= Prog.static_count parsed.D.Emitter.prog)

(* Exit-state metadata drives the inter-TB optimization. *)
let test_exit_states_recorded () =
  let block =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.branch_to a ~cond:Cond.NE "n";
        Asm.label a "n")
  in
  let r = emit ~opt:D.Opt.full block in
  let some_save =
    Array.exists (fun (e : D.Emitter.exit_state) -> e.D.Emitter.flags_save_in_epilogue)
      r.D.Emitter.exit_states
  in
  Alcotest.(check bool) "an exit carries a flag save" true some_save

let test_elide_removes_save () =
  let block =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  let normal = emit ~opt:D.Opt.full block in
  let elide = Array.make Repro_tcg.Tb.exit_slots true in
  let elided = emit ~opt:D.Opt.full ~elide block in
  Alcotest.(check bool) "elided epilogue is shorter" true
    (Prog.static_count elided.D.Emitter.prog < Prog.static_count normal.D.Emitter.prog);
  Alcotest.(check bool) "records no save" true
    (Array.for_all
       (fun (e : D.Emitter.exit_state) -> not e.D.Emitter.flags_save_in_epilogue)
       elided.D.Emitter.exit_states)

let test_entry_conv_guards_irq_check () =
  let block = assemble (fun a -> Asm.add a 0 0 1; Asm.branch_to a "n"; Asm.label a "n") in
  let plain = emit ~opt:D.Opt.full block in
  let assumed = emit ~opt:D.Opt.full ~entry_conv:Repro_rules.Flagconv.Sub_like block in
  let savef prog = count_in prog (function X.Savef _ -> true | _ -> false) in
  Alcotest.(check bool) "assumed entry parks EFLAGS around the check" true
    (savef assumed.D.Emitter.prog > savef plain.D.Emitter.prog)

let test_first_flag_is_def () =
  let def_first =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.add a 1 1 1;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  let use_first =
    assemble (fun a ->
        Asm.add a ~cond:Cond.EQ 1 1 1;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  let mem_first =
    assemble (fun a ->
        Asm.ldr a 1 6 0;
        Asm.cmp a 0 5;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  Alcotest.(check bool) "cmp first" true (emit def_first).D.Emitter.first_flag_is_def;
  Alcotest.(check bool) "conditional first" false
    (emit use_first).D.Emitter.first_flag_is_def;
  Alcotest.(check bool) "memory first (conservative)" false
    (emit mem_first).D.Emitter.first_flag_is_def

let test_sched_irq_moves_check () =
  let block =
    assemble (fun a ->
        Asm.ldr a 1 6 0;
        Asm.add a 2 2 1;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  let find prog p =
    let idx = ref (-1) in
    Array.iteri (fun i insn -> if !idx < 0 && p insn then idx := i) prog.Prog.code;
    !idx
  in
  let without = emit ~opt:D.Opt.with_elimination block in
  let with_sched = emit ~opt:D.Opt.full block in
  let poll p = find p (function X.Count X.Cnt_irq_poll -> true | _ -> false) in
  let first_insn p = find p (function X.Count (X.Cnt_guest_insn _) -> true | _ -> false) in
  Alcotest.(check bool) "check at head without scheduling" true
    (poll without.D.Emitter.prog < first_insn without.D.Emitter.prog);
  Alcotest.(check bool) "check moved into the block with scheduling" true
    (poll with_sched.D.Emitter.prog > first_insn with_sched.D.Emitter.prog);
  (* a region checks once, at its head, even when its head chunk alone
     would schedule the check mid-body *)
  let region = emit ~opt:D.Opt.full ~tail:[ (12, block) ] block in
  Alcotest.(check bool) "check at the head of a region" true
    (poll region.D.Emitter.prog < first_insn region.D.Emitter.prog)

let test_inline_mmu_has_no_helper_on_fast_path () =
  let block =
    assemble (fun a ->
        Asm.ldr a 1 6 0;
        Asm.branch_to a "n";
        Asm.label a "n")
  in
  let helper = emit ~opt:D.Opt.full block in
  let inline = emit ~opt:D.Opt.future block in
  let tlb_ops prog =
    count_in prog (function
      | X.Alu { dst = X.Mem { X.seg = X.Tlb; _ }; _ }
      | X.Mov { src = X.Mem { X.seg = X.Tlb; _ }; _ } -> true
      | _ -> false)
  in
  Alcotest.(check bool) "helper path has no inline TLB probe" true
    (tlb_ops helper.D.Emitter.prog = 0);
  Alcotest.(check bool) "inline path probes the TLB" true
    (tlb_ops inline.D.Emitter.prog >= 2)

(* ---------- multi-chunk (region) emission ---------- *)

let irq_polls prog = count_in prog (function X.Count X.Cnt_irq_poll -> true | _ -> false)

let region_credit (r : D.Emitter.result) =
  r.D.Emitter.prov.((2 * Repro_perfscope.Ledger.(pass_index Region)) + 1)

let exits_to r pc =
  Array.fold_left
    (fun n k -> if k = Repro_tcg.Tb.Direct pc then n + 1 else n)
    0 r.D.Emitter.exits

(* Two contiguous chunks: the first falls through into the second with
   no exit between them, one interrupt check guards both, and the
   removed seam is credited to the Region pass. A gap at the seam makes
   the trace unfusable. *)
let test_region_contiguous_seam () =
  let first = assemble (fun a -> Asm.cmp a 0 5; Asm.add a 1 1 1) in
  let second = assemble (fun a -> Asm.add a 2 2 1; Asm.branch_to a "n"; Asm.label a "n") in
  let r = emit ~tail:[ (8, second) ] first in
  Alcotest.(check int) "one interrupt check" 1 (irq_polls r.D.Emitter.prog);
  Alcotest.(check int) "no exit at the seam" 0 (exits_to r 8);
  Alcotest.(check int) "region exit file" Repro_tcg.Tb.region_exit_slots
    (Array.length r.D.Emitter.exits);
  Alcotest.(check bool) "seam credited to Region" true (region_credit r > 0);
  Alcotest.(check bool) "a plain TB credits no Region saving" true
    (region_credit (emit first) = 0);
  Alcotest.check_raises "fall-through PC is not the next chunk" Repro_tcg.Tb.Tb_too_complex
    (fun () -> ignore (emit ~tail:[ (0x100, second) ] first))

(* A conditional B seam continues into the next chunk along whichever
   direction it starts at, and keeps one side exit for the other. *)
let test_region_conditional_seam () =
  (* cmp; bne 12 — the nop only places the target past the fall-through *)
  let branch =
    assemble (fun a ->
        Asm.cmp a 0 5;
        Asm.branch_to a ~cond:Cond.NE "t";
        Asm.nop a;
        Asm.label a "t")
    |> List.filteri (fun i _ -> i < 2)
  in
  let tail = assemble (fun a -> Asm.add a 2 2 1; Asm.branch_to a "n"; Asm.label a "n") in
  let taken = emit ~tail:[ (12, tail) ] branch in
  Alcotest.(check int) "taken seam: one side exit to the fall-through" 1 (exits_to taken 8);
  Alcotest.(check int) "taken seam: no exit to the next chunk" 0 (exits_to taken 12);
  let fall = emit ~tail:[ (8, tail) ] branch in
  Alcotest.(check int) "fall-through seam: one side exit to the target" 1 (exits_to fall 12);
  Alcotest.(check int) "fall-through seam: no exit to the next chunk" 0 (exits_to fall 8);
  List.iter
    (fun r -> Alcotest.(check int) "one interrupt check" 1 (irq_polls r.D.Emitter.prog))
    [ taken; fall ]

(* ---- emitted host code is pinned --------------------------------- *)

(* A digest of every host program a run emits or re-emits: each fresh
   translation, each fused region and each program the link hook
   rewrites (inter-TB elision). The kernel's self-modifying-code
   flushes leave only a few dozen TBs live at the halt, so the run's
   callbacks are wrapped instead of reading the cache at the end. A
   program contributes its printed code, its per-insn tags, its exit
   kinds, its coordination provenance and its region member ids.
   Refactors of the lowering code must leave these digests unchanged. *)
let program_digest (tb : Repro_tcg.Tb.t) =
  let p = tb.Repro_tcg.Tb.prog in
  Digest.string
    (String.concat "\n"
       [
         Format.asprintf "%a" Prog.pp p;
         String.concat "," (Array.to_list (Array.map X.tag_name p.Prog.tags));
         Marshal.to_string
           (tb.Repro_tcg.Tb.exits, tb.Repro_tcg.Tb.prov, tb.Repro_tcg.Tb.region_ids)
           [ Marshal.No_sharing ];
       ])

let emitted_code_digest ?(on_program = fun _ _ -> ()) bench mode =
  let module T = Repro_tcg in
  let module R = D.Translator_rule in
  let module K = Repro_kernel.Kernel in
  let module W = Repro_workloads.Workloads in
  let spec = W.find bench in
  let iterations = max 1 (40_000 / W.insns_per_iteration spec) in
  let image = K.build ~timer_period:2_000 ~user_program:(W.generate spec ~iterations) () in
  let sys = D.System.create mode in
  K.load image (D.System.load_image sys);
  let rt = sys.D.System.rt and cache = sys.D.System.cache in
  let acc = Buffer.create 4096 and n = ref 0 in
  let note (tb : T.Tb.t) =
    on_program sys tb;
    incr n;
    Buffer.add_string acc (program_digest tb)
  in
  let noted = function Ok tb -> note tb; Ok tb | Error _ as e -> e in
  let res =
    match sys.D.System.rule_translator with
    | None ->
      T.Engine.run rt cache
        ~translate:(fun rt cache ~pc -> noted (T.Translator_qemu.translate rt cache ~pc))
        ~max_guest_insns:5_000_000 ()
    | Some tr ->
      T.Engine.run rt cache
        ~translate:(fun rt cache ~pc -> noted (R.translate tr rt cache ~pc))
        ~on_hot:(fun tb ->
          let r = R.form_region tr rt cache tb in
          Option.iter note r;
          r)
        ~link_hook:(fun ~pred ~slot ~succ ->
          let p0 = pred.T.Tb.prog and s0 = succ.T.Tb.prog in
          R.link_hook tr ~pred ~slot ~succ;
          if pred.T.Tb.prog != p0 then note pred;
          if succ != pred && succ.T.Tb.prog != s0 then note succ)
        ~on_enter:(fun tb -> R.on_enter tr rt tb)
        ~on_executed:(fun tb ~outcome ~guest -> R.on_executed tr rt tb ~outcome ~guest)
        ~max_guest_insns:5_000_000 ()
  in
  (match res.T.Engine.reason with
  | `Halted _ -> ()
  | _ -> Alcotest.failf "%s/%s: the run did not halt" bench (D.System.mode_name mode));
  (!n, Digest.to_hex (Digest.string (Buffer.contents acc)))

(* Recorded before the memory-access lowerings were merged into one
   TLB probe and one LDM/STM expansion. *)
let pinned_code =
  let qemu = D.System.Qemu and rules o = D.System.Rules o in
  [
    ("gcc", qemu, 44, "6ae03420f7732463b35871222fd414fb");
    ("gcc", rules D.Opt.base, 44, "f3c88e21dc5e03a22323edc60e9c7c1b");
    ("gcc", rules D.Opt.reduction_only, 44, "2e94226d86a4e6e9cb69d9768fe73b48");
    ("gcc", rules D.Opt.with_elimination, 52, "148ca4a3ec464184ac8c150339958e41");
    ("gcc", rules D.Opt.full, 67, "21c759a02d0b527832c9d39f0f73fdca");
    ("gcc", rules D.Opt.with_regions, 87, "7b6bce4611586244d694c5b4ea6f75f5");
    ("gcc", rules D.Opt.future, 60, "2447460775d58ea9b89c828d12d49b4b");
    ("hmmer", qemu, 44, "f9d61667ec1ac38fc53b348de8cfcdc0");
    ("hmmer", rules D.Opt.base, 44, "45ff8670db43b9f2363772200575dcd0");
    ("hmmer", rules D.Opt.reduction_only, 44, "218017dcf635e75fae76dfd97a0e2b47");
    ("hmmer", rules D.Opt.with_elimination, 54, "3cc8ee0ca3a5fcb0c6bb8b526a3dfc91");
    ("hmmer", rules D.Opt.full, 58, "aeede9feace7d2d3d6228f41fb70a73f");
    ("hmmer", rules D.Opt.with_regions, 85, "278e51a73d411d13de79165722e94123");
    ("hmmer", rules D.Opt.future, 58, "bb7d38c2762d53a17920dfe7d4820c88");
  ]

let test_emitted_code_pinned () =
  List.iter
    (fun (bench, mode, programs, digest) ->
      let n, d = emitted_code_digest bench mode in
      let what = bench ^ "/" ^ D.System.mode_name mode in
      Alcotest.(check int) (what ^ ": programs emitted") programs n;
      Alcotest.(check string) (what ^ ": code digest") digest d)
    pinned_code

let suite =
  [
    ( "emitter",
      [
        Alcotest.test_case "Fig 9: run grouping" `Quick test_fig9_run_grouping;
        Alcotest.test_case "Fig 10: consecutive memory" `Quick test_fig10_consecutive_memory;
        Alcotest.test_case "Fig 8: parsed vs packed shape" `Quick test_fig8_static_shape;
        Alcotest.test_case "exit states recorded" `Quick test_exit_states_recorded;
        Alcotest.test_case "elision removes the save" `Quick test_elide_removes_save;
        Alcotest.test_case "entry assumption guards irq check" `Quick
          test_entry_conv_guards_irq_check;
        Alcotest.test_case "defines-flags-before-use analysis" `Quick test_first_flag_is_def;
        Alcotest.test_case "III-D-2 moves the check" `Quick test_sched_irq_moves_check;
        Alcotest.test_case "inline mmu probes inline" `Quick
          test_inline_mmu_has_no_helper_on_fast_path;
        Alcotest.test_case "region: contiguous seam" `Quick test_region_contiguous_seam;
        Alcotest.test_case "region: conditional B seam" `Quick test_region_conditional_seam;
        Alcotest.test_case "emitted host code is pinned" `Quick test_emitted_code_pinned;
      ] );
  ]
