open Repro_arm
module D = Repro_dbt
module T = Repro_tcg
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Exec = Repro_x86.Exec
module Cpu = Repro_arm.Cpu
module Snapshot = Repro_snapshot.Snapshot
module Fi = Repro_faultinject.Faultinject
module Perf = Repro_perfscope

(* Hot-region superblock tests: profile-guided TB fusion must be
   invisible to the guest (same final state as the unfused engine),
   must come apart correctly under self-modifying code, and must
   rebuild bit-identically from a snapshot. *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) ?(bench = "gcc") () =
  let spec = W.find bench in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let make_sys ?inject ?scope mode image =
  let sys = D.System.create ?inject ?scope mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  sys

let halt_code res =
  match res.T.Engine.reason with
  | `Halted c -> c
  | `Insn_limit | `Deadline -> Alcotest.fail "run hit its instruction limit"
  | `Livelock pc -> Alcotest.failf "unrecovered livelock at %#x" pc

(* Guest-visible state only: fusion changes modelled host costs, so
   stats are deliberately excluded here (the determinism test below
   compares them between two identically-configured runs instead). *)
let guest_fingerprint sys =
  let rt = sys.D.System.rt in
  ( Cpu.save_words rt.T.Runtime.cpu,
    Digest.to_hex (Digest.string (Repro_common.Ram.to_string rt.T.Runtime.ctx.Exec.ram)),
    D.System.uart_output sys )

(* ---- fusion is guest-invisible and actually pays ------------------- *)

(* Like every cross-engine kernel differential, the contract is the
   guest-visible result (exit code + UART): a region polls for
   interrupts once at its head, so IRQ *timing* — preempted PCs,
   banked IRQ registers, handler stack frames — legitimately differs
   from the unfused engine, exactly as it does between qemu and rules
   modes. *)
let test_region_equivalence () =
  List.iter
    (fun bench ->
      let image = kernel_image ~bench () in
      let plain = make_sys (D.System.Rules D.Opt.full) image in
      let plain_code = halt_code (D.System.run ~max_guest_insns:3_000_000 plain) in
      let fused = make_sys (D.System.Rules D.Opt.with_regions) image in
      let fused_code = halt_code (D.System.run ~max_guest_insns:3_000_000 fused) in
      let sp = D.System.stats plain and sf = D.System.stats fused in
      Alcotest.(check int) (bench ^ ": same exit code") plain_code fused_code;
      Alcotest.(check string) (bench ^ ": same uart")
        (D.System.uart_output plain)
        (D.System.uart_output fused);
      Alcotest.(check bool) (bench ^ ": superblocks formed") true
        (sf.Stats.regions_formed > 0);
      Alcotest.(check int) (bench ^ ": none without the flag") 0
        sp.Stats.regions_formed;
      (* the point of the optimization: fewer host instructions and
         fewer Sync-tagged coordination instructions (the Fig. 17
         metric) for the same guest work *)
      Alcotest.(check bool) (bench ^ ": host insns improved") true
        (sf.Stats.host_insns < sp.Stats.host_insns);
      Alcotest.(check bool) (bench ^ ": sync insns improved") true
        (Stats.tag_count sf Repro_x86.Insn.Tag_sync
        < Stats.tag_count sp Repro_x86.Insn.Tag_sync))
    [ "gcc"; "mcf" ]

(* Two identically-configured fused runs must agree to the last
   counter — formation is profile-driven but the profile itself is
   deterministic. *)
let test_region_determinism () =
  let image = kernel_image () in
  let once () =
    let sys = make_sys (D.System.Rules D.Opt.with_regions) image in
    let code = halt_code (D.System.run ~max_guest_insns:3_000_000 sys) in
    (code, guest_fingerprint sys, Stats.to_array (D.System.stats sys))
  in
  let c1, (ra, ma, ua), s1 = once () in
  let c2, (rb, mb, ub), s2 = once () in
  Alcotest.(check int) "halt code" c1 c2;
  Alcotest.(check (array int)) "cpu words" ra rb;
  Alcotest.(check string) "ram digest" ma mb;
  Alcotest.(check string) "uart" ua ub;
  Alcotest.(check (array int)) "stats (incl. regions_formed)" s1 s2

(* ---- self-modifying code splits a region --------------------------- *)

(* A loop runs long past the hot threshold (a superblock forms over
   it), then patches one of its own instructions and runs on: the
   store must invalidate the fused code, and the re-translated loop
   must execute the patched semantics. The reference interpreter
   defines the correct answer: 100 iterations of +1, 100 of +2. *)
let test_region_smc_split () =
  let patched =
    Repro_arm.Encode.encode
      (Insn.make
         (Insn.Dp
            { op = Insn.ADD; s = false; rd = 4; rn = 4;
              op2 = Insn.imm_operand_exn 2 }))
  in
  let user =
    let a = Asm.create ~origin:K.user_code_base () in
    Asm.mov32 a Insn.sp K.user_stack_top;
    Asm.mov a 5 0;                          (* iteration counter *)
    Asm.mov a 4 0;                          (* accumulator *)
    Asm.label a "again";
    Asm.label a "patch";
    Asm.add a 4 4 1;                        (* will become add r4, r4, #2 *)
    Asm.add a 5 5 1;
    Asm.cmp a 5 100;
    Asm.branch_to a ~cond:Cond.EQ "do_patch";
    Asm.cmp a 5 200;
    Asm.branch_to a ~cond:Cond.NE "again";
    Asm.mov_r a 0 4;
    Asm.mov a 7 K.sys_exit;
    Asm.svc a 0;
    Asm.label a "do_patch";
    Asm.mov32_label a 1 "patch";
    Asm.mov32 a 2 patched;
    Asm.str a 2 1 0;
    Asm.branch_to a "again";
    snd (Asm.assemble a)
  in
  let image = K.build ~timer_period:5_000 ~user_program:user () in
  (* reference answer *)
  let m = T.Ref_machine.create () in
  K.load image (fun base words -> T.Ref_machine.load_image m base words);
  let ref_code =
    match T.Ref_machine.run m ~max_steps:3_000_000 with
    | T.Ref_machine.Halted c, _ -> c
    | _ -> Alcotest.fail "reference did not halt"
  in
  Alcotest.(check int) "reference computes 100*1 + 100*2" 300 ref_code;
  let sys = make_sys (D.System.Rules D.Opt.with_regions) image in
  let code = halt_code (D.System.run ~max_guest_insns:3_000_000 sys) in
  let st = D.System.stats sys in
  Alcotest.(check int) "patched semantics executed under fusion" ref_code code;
  Alcotest.(check bool) "a superblock had formed over the loop" true
    (st.Stats.regions_formed > 0)

(* ---- snapshot restore rebuilds regions ----------------------------- *)

(* Interrupt a fused run after superblocks exist, freeze it through the
   wire format, thaw into a new machine and finish: same final state
   as the uninterrupted fused run, to the last counter — the rebuilt
   regions behave identically (and the restored hot counters mean
   later formations fire at the same points). *)
let test_region_restore () =
  let image = kernel_image () in
  let full = make_sys (D.System.Rules D.Opt.with_regions) image in
  let full_res = D.System.run ~max_guest_insns:3_000_000 full in
  let part = make_sys (D.System.Rules D.Opt.with_regions) image in
  (* past the point where the workload's hot loops have fused (the
     first superblocks appear just before 20k retired insns) *)
  let part_res =
    D.System.run ~max_guest_insns:25_000 ~checkpoint_every:4_000 part
  in
  (match part_res.T.Engine.reason with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "interrupted run should hit its budget");
  Alcotest.(check bool) "snapshot captures live superblocks" true
    ((D.System.stats part).Stats.regions_formed > 0);
  let frozen = Snapshot.to_string (D.System.snapshot part) in
  let snap = Snapshot.of_string frozen in
  let thawed =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib snap)
      ?inject:(D.System.snapshot_injector snap)
      (D.System.snapshot_mode snap)
  in
  D.System.restore thawed snap;
  let rest_res = D.System.run ~max_guest_insns:2_975_000 thawed in
  Alcotest.(check int) "same halt code" (halt_code full_res)
    (halt_code rest_res);
  let ra, ma, ua = guest_fingerprint full
  and rb, mb, ub = guest_fingerprint thawed in
  Alcotest.(check (array int)) "cpu words" ra rb;
  Alcotest.(check string) "ram digest" ma mb;
  Alcotest.(check string) "uart" ua ub;
  Alcotest.(check (array int)) "stats (incl. regions_formed)"
    (Stats.to_array (D.System.stats full))
    (Stats.to_array (D.System.stats thawed))

(* ---- restore under grown health -----------------------------------

   A machine can blacklist a PC or quarantine a rule after a snapshot
   was taken, and restore merges the live health in before it installs
   the captured code. Nothing is translated: an entry the grown health
   would translate differently is dropped, with every region over it,
   and the engine translates it again on demand. Every other entry
   keeps its captured id and program, and the guest still computes the
   reference answer, from the in-memory snapshot and from its bytes. *)
let test_region_restore_grown_blacklist () =
  let mode = D.System.Rules D.Opt.with_regions in
  let image = kernel_image () in
  let reference = make_sys mode image in
  let ref_code = halt_code (D.System.run ~max_guest_insns:3_000_000 reference) in
  let sys = make_sys mode image in
  (match (D.System.run ~max_guest_insns:25_000 ~checkpoint_every:4_000 sys).T.Engine.reason with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "interrupted run should hit its budget");
  let snap = D.System.snapshot sys in
  let cache = sys.D.System.cache in
  let plain = T.Tb.Cache.to_list cache and regions = T.Tb.Cache.regions_list cache in
  let region =
    match regions with
    | r :: _ -> r
    | [] -> Alcotest.fail "the snapshot should hold a live region"
  in
  let by_id id = List.find (fun (tb : T.Tb.t) -> tb.T.Tb.id = id) plain in
  let member = by_id region.T.Tb.region_ids.(1) in
  let view = List.map (fun (tb : T.Tb.t) -> (tb.T.Tb.id, Test_emitter.program_digest tb)) in
  (* Restore into a fresh machine that [demote] demoted first; [gone]
     names the captured plain TBs the grown health must drop. *)
  let restore_demoted what ~demote ~gone =
    let dropped (tb : T.Tb.t) =
      if T.Tb.is_region tb then Array.exists (fun id -> gone (by_id id)) tb.T.Tb.region_ids
      else gone tb
    in
    let kept = List.filter (fun tb -> not (dropped tb)) (plain @ regions) in
    Alcotest.(check bool) (what ^ ": the region over a demoted member goes") true
      (dropped region && List.length kept > 1);
    List.iter
      (fun (from, snap) ->
        let what = Printf.sprintf "%s, from %s" what from in
        let m = make_sys mode image in
        demote m;
        D.System.restore m snap;
        let live = T.Tb.Cache.to_list m.D.System.cache @ T.Tb.Cache.regions_list m.D.System.cache in
        Alcotest.(check (list (pair int string)))
          (what ^ ": every other entry keeps its captured id and program")
          (view kept) (view live);
        let res = D.System.run ~max_guest_insns:2_975_000 m in
        Alcotest.(check int) (what ^ ": reference halt code") ref_code (halt_code res);
        Alcotest.(check string) (what ^ ": reference uart") (D.System.uart_output reference)
          (D.System.uart_output m))
      [ ("memory", snap); ("bytes", Snapshot.of_string (Snapshot.to_string snap)) ]
  in
  let pc = member.T.Tb.guest_pc in
  restore_demoted "a PC blacklisted since"
    ~demote:(fun m ->
      let tr = Option.get m.D.System.rule_translator in
      let st = D.Translator_rule.state tr in
      let blacklist = Repro_rules.Ruleset.Ids.add pc st.D.Translator_rule.blacklist in
      D.Translator_rule.set_state tr { st with D.Translator_rule.blacklist })
    ~gone:(fun tb -> tb.T.Tb.guest_pc = pc);
  (* a rule the region's second member used, quarantined since: the
     first rule whose quarantine makes that member stale *)
  let probe = make_sys mode image in
  let stale_under id =
    Repro_rules.Ruleset.set_health (Option.get probe.D.System.ruleset)
      { Repro_rules.Ruleset.strikes = Repro_rules.Ruleset.Counts.empty;
        quarantined = Repro_rules.Ruleset.Ids.singleton id };
    let ptr = Option.get probe.D.System.rule_translator in
    fun (tb : T.Tb.t) -> D.Translator_rule.stale ptr tb
  in
  let rule =
    match
      List.find_opt
        (fun id -> stale_under id member)
        (List.map
           (fun (r : Repro_rules.Rule.t) -> r.Repro_rules.Rule.id)
           (Repro_rules.Ruleset.rules (Option.get sys.D.System.ruleset)))
    with
    | Some id -> id
    | None -> Alcotest.fail "the region's second member uses no rule"
  in
  restore_demoted
    (Printf.sprintf "rule %d quarantined since" rule)
    ~demote:(fun m ->
      ignore (Repro_rules.Ruleset.quarantine_by_id (Option.get m.D.System.ruleset) rule))
    ~gone:(stale_under rule)

(* ---- watchdog rollback bends the perfscope partition ---------------

   Over a rollback-free run the scope's phase totals partition the
   final host_insns exactly. A watchdog rollback breaks that: Stats is
   reloaded from the checkpoint (the livelocked span's host insns are
   discarded) while the scope keeps its accumulations. The discrepancy
   telescopes — every rollback's excess is already inside the scope
   total the next post-mortem observes — so at the end of the run

     scope_total - host_insns
       = (scope total at the LAST post-mortem)
       - (host_insns recorded in the LAST rollback's checkpoint)

   i.e. the partition "bend" is exactly the last rolled-back span plus
   all earlier ones folded in, never an arbitrary leak. *)

let test_region_watchdog_bend () =
  let image = kernel_image ~target:60_000 () in
  let clean = make_sys (D.System.Rules D.Opt.with_regions) image in
  let clean_code = halt_code (D.System.run ~max_guest_insns:3_000_000 clean) in
  let sabotaged () =
    let inject = Fi.create ~seed:11 ~rate:0.0 () in
    Fi.set_rate inject Fi.Host_livelock 0.05;
    let scope = Perf.Scope.create () in
    let sys = make_sys ~inject ~scope (D.System.Rules D.Opt.with_regions) image in
    let pms = ref [] in
    let res =
      D.System.run ~max_guest_insns:3_000_000 ~checkpoint_every:4_000
        ~on_postmortem:(fun ~reason:_ dump ->
          (* capture the scope clock at the rollback instant (the
             callback fires before the checkpoint is restored) and the
             checkpoint's own host-insn clock from the dump *)
          let d = Snapshot.Dec.of_string ~name:"stats" (Snapshot.find dump "stats") in
          let cp_stats = Stats.create () in
          Stats.load_array cp_stats (Snapshot.Dec.int_array d);
          pms := (Perf.Scope.total scope, cp_stats.Stats.host_insns) :: !pms)
        sys
    in
    (res, sys, scope, !pms (* newest first *))
  in
  let res, sys, scope, pms = sabotaged () in
  let stats = D.System.stats sys in
  Alcotest.(check bool) "sabotage livelocked at least once" true
    (stats.Stats.livelocks_recovered > 0);
  Alcotest.(check int) "one post-mortem per recovery"
    stats.Stats.livelocks_recovered (List.length pms);
  Alcotest.(check int) "guest still finishes with the clean answer" clean_code
    (halt_code res);
  Alcotest.(check bool) "rollback demoted the floor below regions" true
    (D.System.rung_floor sys <> D.System.Rung_rules);
  let s_pm_last, h_cp_last = List.hd pms in
  Alcotest.(check int) "partition bend = exactly the rolled-back span"
    (s_pm_last - h_cp_last)
    (Perf.Scope.total scope - stats.Stats.host_insns);
  (* post-rollback determinism: the whole recovery story — faults,
     rollbacks, demotions, the bend itself — replays bit-identically
     from the injector seed *)
  let res2, sys2, scope2, pms2 = sabotaged () in
  Alcotest.(check int) "same halt code" (halt_code res) (halt_code res2);
  let ra, ma, ua = guest_fingerprint sys and rb, mb, ub = guest_fingerprint sys2 in
  Alcotest.(check (array int)) "same cpu words" ra rb;
  Alcotest.(check string) "same ram digest" ma mb;
  Alcotest.(check string) "same uart" ua ub;
  Alcotest.(check (array int)) "same stats (incl. recoveries)"
    (Stats.to_array (D.System.stats sys))
    (Stats.to_array (D.System.stats sys2));
  Alcotest.(check int) "same scope total" (Perf.Scope.total scope)
    (Perf.Scope.total scope2);
  Alcotest.(check (list (pair int int))) "same rollback instants" pms pms2

let suite =
  [
    ( "regions",
      [
        Alcotest.test_case "fusion is guest-invisible and pays" `Quick
          test_region_equivalence;
        Alcotest.test_case "fused runs are deterministic" `Quick
          test_region_determinism;
        Alcotest.test_case "self-modifying code splits a region" `Quick
          test_region_smc_split;
        Alcotest.test_case "snapshot rebuilds superblocks" `Quick
          test_region_restore;
        Alcotest.test_case "watchdog rollback bends the perf partition" `Quick
          test_region_watchdog_bend;
        Alcotest.test_case "restore skips a region over a blacklisted PC" `Quick
          test_region_restore_grown_blacklist;
      ] );
  ]
