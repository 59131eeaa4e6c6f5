module T = Repro_tcg
module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Stats = Repro_x86.Stats
module Exec = Repro_x86.Exec
module Fi = Repro_faultinject.Faultinject
module Snapshot = Repro_snapshot.Snapshot
module Journal = Repro_snapshot.Journal
module Cpu = Repro_arm.Cpu

(* Snapshot / record-replay / watchdog tests: the robustness layer.
   Everything runs the full kernel image (MMU on, timer IRQs, user and
   supervisor mode) so checkpoints cover the interesting machine
   state, not just a flat register file. *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) () =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let make_sys ?inject ?scope ?(shadow_depth = 0) mode image =
  let sys = D.System.create ?inject ?scope ~shadow_depth mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  sys

(* Everything guest-visible plus the engine counters, as one value. *)
let fingerprint sys =
  let rt = sys.D.System.rt in
  ( Cpu.save_words rt.T.Runtime.cpu,
    Digest.to_hex (Digest.string (Repro_common.Ram.to_string rt.T.Runtime.ctx.Exec.ram)),
    Stats.to_array (D.System.stats sys),
    D.System.uart_output sys )

let check_fingerprint msg (ra, ma, sa, ua) (rb, mb, sb, ub) =
  Alcotest.(check (array int)) (msg ^ ": cpu words") ra rb;
  Alcotest.(check string) (msg ^ ": ram digest") ma mb;
  Alcotest.(check (array int)) (msg ^ ": stats") sa sb;
  Alcotest.(check string) (msg ^ ": uart") ua ub

let halt_code res =
  match res.T.Engine.reason with
  | `Halted c -> c
  | `Insn_limit | `Deadline -> Alcotest.fail "run hit its instruction limit"
  | `Livelock pc -> Alcotest.failf "unrecovered livelock at %#x" pc

(* ---- rule-set serialization round-trip ----------------------------- *)

let test_serialize_roundtrip () =
  let rs = R.Builtin.ruleset () in
  let s1 = R.Serialize.save rs in
  let rs2 =
    match R.Serialize.load s1 with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "reload failed: %s" e
  in
  let s2 = R.Serialize.save rs2 in
  Alcotest.(check string) "save -> load -> save is byte-identical" s1 s2

(* ---- same-seed determinism ----------------------------------------- *)

(* Two machines built identically must retire the same instructions,
   print the same UART bytes and count the same statistics — the
   property record/replay stands on. Checked across all three engine
   tiers, with the fault injector armed so its PRNG is in the loop. *)
let test_determinism () =
  let image = kernel_image () in
  List.iter
    (fun mode ->
      let once () =
        let inject = Fi.create ~seed:5 ~rate:0.005 () in
        let sys = make_sys ~inject ~shadow_depth:4 mode image in
        let res = D.System.run ~max_guest_insns:2_000_000 sys in
        (halt_code res, fingerprint sys)
      in
      let c1, f1 = once () and c2, f2 = once () in
      let name = D.System.mode_name mode in
      Alcotest.(check int) (name ^ ": halt code") c1 c2;
      check_fingerprint name f1 f2)
    [ D.System.Qemu; D.System.Rules D.Opt.full ];
  (* interpreter tier *)
  let ref_once () =
    let m = T.Ref_machine.create () in
    K.load image (fun base words -> T.Ref_machine.load_image m base words);
    let outcome, steps = T.Ref_machine.run m ~max_steps:2_000_000 in
    let code =
      match outcome with
      | T.Ref_machine.Halted c -> c
      | _ -> Alcotest.fail "reference did not halt"
    in
    (code, steps, Repro_machine.Devices.Uart.output m.T.Ref_machine.bus.Repro_machine.Bus.uart)
  in
  let a = ref_once () and b = ref_once () in
  Alcotest.(check (triple int int string)) "interpreter" a b

(* ---- save -> restore bit-identity ---------------------------------- *)

(* Interrupt a run mid-flight, serialize the snapshot to bytes, thaw
   it into a brand-new machine and finish; the final machine must be
   bit-identical to one that ran uninterrupted. *)
let restore_roundtrip ?inject_seed ?(shadow_depth = 0) mode =
  let image = kernel_image () in
  let inject () =
    Option.map (fun seed -> Fi.create ~seed ~rate:0.005 ()) inject_seed
  in
  let full = make_sys ?inject:(inject ()) ~shadow_depth mode image in
  let full_res = D.System.run ~max_guest_insns:2_000_000 full in
  let part = make_sys ?inject:(inject ()) ~shadow_depth mode image in
  let part_res = D.System.run ~max_guest_insns:15_000 ~checkpoint_every:4_000 part in
  (match part_res.T.Engine.reason with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "interrupted run should hit its budget");
  (* through the wire format, as a file would *)
  let frozen = Snapshot.to_string (D.System.snapshot part) in
  let snap = Snapshot.of_string frozen in
  let thawed =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib snap)
      ?inject:(D.System.snapshot_injector snap)
      ~shadow_depth
      (D.System.snapshot_mode snap)
  in
  D.System.restore thawed snap;
  let rest_res = D.System.run ~max_guest_insns:1_985_000 thawed in
  Alcotest.(check int) "same halt code" (halt_code full_res) (halt_code rest_res);
  check_fingerprint (D.System.mode_name mode) (fingerprint full) (fingerprint thawed)

let test_restore_qemu () = restore_roundtrip D.System.Qemu
let test_restore_rules () = restore_roundtrip (D.System.Rules D.Opt.full)

let test_restore_inject () =
  restore_roundtrip ~inject_seed:9 ~shadow_depth:4 (D.System.Rules D.Opt.full)

(* ---- livelock watchdog --------------------------------------------- *)

(* Sabotaged rule output spins a TB forever; the watchdog must roll
   back to the last checkpoint, re-execute under a degraded engine and
   let the guest finish with the same answer an unperturbed machine
   produces. *)
let test_watchdog_recovery () =
  let image = kernel_image () in
  let clean = make_sys (D.System.Rules D.Opt.full) image in
  let clean_code = halt_code (D.System.run ~max_guest_insns:2_000_000 clean) in
  let inject = Fi.create ~seed:11 ~rate:0.0 () in
  Fi.set_rate inject Fi.Host_livelock 0.05;
  let dumps = ref [] in
  let sys = make_sys ~inject (D.System.Rules D.Opt.full) image in
  let res =
    D.System.run ~max_guest_insns:2_000_000 ~checkpoint_every:4_000
      ~on_postmortem:(fun ~reason dump -> dumps := (reason, dump) :: !dumps)
      sys
  in
  Alcotest.(check int) "guest finished with the clean answer" clean_code
    (halt_code res);
  let recovered = (D.System.stats sys).Stats.livelocks_recovered in
  Alcotest.(check bool) "watchdog fired" true (recovered > 0);
  Alcotest.(check int) "one post-mortem per recovery" recovered
    (List.length !dumps);
  (* the livelock dump replays deterministically: same faults, then the
     same livelock (replay runs with the watchdog off) *)
  let _, dump = List.hd !dumps in
  let rep_sys =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib dump)
      ?inject:(D.System.snapshot_injector dump)
      (D.System.snapshot_mode dump)
  in
  let report = D.System.replay rep_sys dump in
  Alcotest.(check bool) "livelock replay reproduced" true
    report.D.System.rep_ok;
  match report.D.System.rep_result.T.Engine.reason with
  | `Livelock _ -> ()
  | _ -> Alcotest.fail "replay should livelock again"

(* ---- divergence post-mortem replay --------------------------------- *)

let test_divergence_replay () =
  let image = kernel_image ~target:60_000 () in
  let inject = Fi.create ~seed:3 ~rate:0.05 () in
  let dumps = ref [] in
  let sys = make_sys ~inject ~shadow_depth:6 (D.System.Rules D.Opt.full) image in
  ignore
    (D.System.run ~max_guest_insns:4_000_000 ~checkpoint_every:5_000
       ~on_postmortem:(fun ~reason dump -> dumps := (reason, dump) :: !dumps)
       sys);
  let divergences =
    List.filter (fun (r, _) -> String.length r >= 6 && String.sub r 0 6 = "shadow")
      !dumps
  in
  Alcotest.(check bool) "a shadow divergence was dumped" true
    (divergences <> []);
  List.iter
    (fun (_, dump) ->
      (* through the wire format, as --replay would see it *)
      let dump = Snapshot.of_string (Snapshot.to_string dump) in
      let rep_sys =
        D.System.create
          ~ram_kib:(D.System.snapshot_ram_kib dump)
          ?inject:(D.System.snapshot_injector dump)
          ~shadow_depth:6
          (D.System.snapshot_mode dump)
      in
      let report = D.System.replay rep_sys dump in
      Alcotest.(check bool) "expected events reproduced" true
        report.D.System.rep_ok)
    divergences

(* ---- typed load errors --------------------------------------------- *)

let test_load_error () =
  let sys = D.System.create D.System.Qemu in
  (match D.System.load_image sys 0xFFFF_0000 [| 1; 2; 3 |] with
  | () -> Alcotest.fail "out-of-RAM load must raise"
  | exception T.Runtime.Load_error addr ->
    Alcotest.(check int) "faulting address" 0xFFFF_0000 addr);
  let m = T.Ref_machine.create () in
  match T.Ref_machine.load_image m 0xFFFF_0000 [| 1 |] with
  | () -> Alcotest.fail "out-of-RAM reference load must raise"
  | exception T.Runtime.Load_error _ -> ()

(* ---- container integrity ------------------------------------------- *)

let test_corruption_detected () =
  let image = kernel_image () in
  let sys = make_sys D.System.Qemu image in
  ignore (D.System.run ~max_guest_insns:10_000 sys);
  let good = Snapshot.to_string (D.System.snapshot sys) in
  (* unmolested bytes parse *)
  ignore (Snapshot.of_string good);
  let flip pos =
    let b = Bytes.of_string good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    Bytes.to_string b
  in
  let expect_corrupt what s =
    match Snapshot.of_string s with
    | _ -> Alcotest.failf "%s: corruption not detected" what
    | exception Snapshot.Load_error _ -> ()
  in
  expect_corrupt "bad magic" (flip 0);
  expect_corrupt "bad body byte" (flip (String.length good - 10));
  expect_corrupt "truncation" (String.sub good 0 (String.length good - 1));
  (* a shape mismatch is caught at restore time *)
  let snap = Snapshot.of_string good in
  let small = D.System.create ~ram_kib:64 D.System.Qemu in
  match D.System.restore small snap with
  | () -> Alcotest.fail "RAM-size mismatch must raise"
  | exception Snapshot.Corrupt _ -> ()

(* ---- demotion state survives restore ------------------------------- *)

(* Health only ratchets down: restoring an older, more optimistic
   snapshot must not un-quarantine a rule or raise the degradation
   floor (merge semantics), and a snapshot taken after a demotion must
   carry it into a fresh machine (persistence). *)
let test_restore_keeps_quarantine () =
  let image = kernel_image () in
  let sys = make_sys (D.System.Rules D.Opt.full) image in
  let rs = Option.get sys.D.System.ruleset in
  ignore (D.System.run ~max_guest_insns:10_000 ~checkpoint_every:4_000 sys);
  (* snapshot A: optimistic — nothing demoted yet *)
  let optimistic = Snapshot.of_string (Snapshot.to_string (D.System.snapshot sys)) in
  Alcotest.(check (list int)) "baseline: nothing quarantined" []
    (R.Ruleset.quarantined_ids rs);
  Alcotest.(check bool) "baseline: floor is rules" true
    (D.System.rung_floor sys = D.System.Rung_rules);
  (* demote: quarantine a real rule fleet-style, drop the engine floor *)
  let victim = (List.hd (R.Ruleset.rules rs)).R.Rule.id in
  Alcotest.(check bool) "quarantine_by_id hits" true
    (R.Ruleset.quarantine_by_id rs victim);
  Alcotest.(check bool) "quarantine_by_id is idempotent" false
    (R.Ruleset.quarantine_by_id rs victim);
  Alcotest.(check bool) "degrade_floor drops one rung" true
    (D.System.degrade_floor sys);
  (* snapshot B: taken after the demotions. {!D.System.snapshot} hands
     back the checkpoint from the last insn-limit stop, so run past
     another limit first — the fresh stop checkpoint records the
     demoted health. *)
  ignore (D.System.run ~max_guest_insns:4_000 ~checkpoint_every:4_000 sys);
  let demoted = Snapshot.of_string (Snapshot.to_string (D.System.snapshot sys)) in
  (* restoring optimistic state must NOT reset the demotions *)
  D.System.restore sys optimistic;
  Alcotest.(check (list int)) "old snapshot does not un-quarantine"
    [ victim ] (R.Ruleset.quarantined_ids rs);
  Alcotest.(check bool) "old snapshot does not raise the floor" true
    (D.System.rung_floor sys = D.System.Rung_baseline);
  (* a fresh machine restoring snapshot B inherits the demotions *)
  let thawed = make_sys (D.System.Rules D.Opt.full) image in
  let rs2 = Option.get thawed.D.System.ruleset in
  D.System.restore thawed demoted;
  Alcotest.(check (list int)) "persisted quarantine arrives" [ victim ]
    (R.Ruleset.quarantined_ids rs2);
  Alcotest.(check bool) "persisted floor arrives" true
    (D.System.rung_floor thawed = D.System.Rung_baseline);
  (* and the demoted machine still finishes the workload cleanly *)
  let res = D.System.run ~max_guest_insns:2_000_000 thawed in
  ignore (halt_code res)

(* Corrupt every section of a full engine-level snapshot in turn (and
   truncate the container at a sweep of lengths): loading must always
   surface a typed [Load_error] naming the damaged section — never a
   wrong parse, never any other exception. *)
let test_corrupt_every_section () =
  let image = kernel_image () in
  let sys = make_sys (D.System.Rules D.Opt.full) image in
  ignore (D.System.run ~max_guest_insns:20_000 ~checkpoint_every:4_000 sys);
  let snap = D.System.snapshot sys in
  let good = Snapshot.to_string snap in
  let load what s =
    match Snapshot.of_string s with
    | _ -> Alcotest.failf "%s: corruption not detected" what
    | exception Snapshot.Load_error { section; _ } -> section
    | exception e ->
      Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)
  in
  (* locate each payload inside the container to aim the bit flips;
     payloads are unique enough in a real snapshot for a byte search *)
  let find_sub hay needle from =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      if i + n > h then None
      else if String.sub hay i n = needle then Some i
      else go (i + 1)
    in
    go from
  in
  List.iter
    (fun name ->
      let payload = Snapshot.find snap name in
      if String.length payload > 0 then begin
        let pos =
          match find_sub good payload 24 with
          | Some p -> p
          | None -> Alcotest.failf "%s: payload not found in container" name
        in
        let b = Bytes.of_string good in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
        let blamed = load (Printf.sprintf "flip in %s" name) (Bytes.to_string b) in
        (* a flipped payload byte can also appear inside an earlier
           section that happens to share those bytes; the blame must
           still be a real section name *)
        Alcotest.(check bool)
          (Printf.sprintf "flip in %s blames a section (got %s)" name blamed)
          true
          (List.mem blamed (Snapshot.names snap))
      end)
    (Snapshot.names snap);
  (* truncation sweep: every prefix must fail typed *)
  let len = String.length good in
  let step = max 1 (len / 97) in
  let k = ref 0 in
  while !k < len do
    ignore (load (Printf.sprintf "truncate at %d" !k) (String.sub good 0 !k));
    k := !k + step
  done;
  (* random bit-flip sweep with a deterministic PRNG *)
  let prng = Repro_common.Prng.create ~seed:77 in
  for _ = 1 to 200 do
    let pos = Repro_common.Prng.int prng len in
    let bit = 1 lsl Repro_common.Prng.int prng 8 in
    let b = Bytes.of_string good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    ignore (load (Printf.sprintf "random flip at %d" pos) (Bytes.to_string b))
  done

(* File-level robustness: a snapshot file truncated at any point — all
   the way down to zero bytes, the signature a crash during a
   non-atomic write would leave — must load as a typed error, never a
   crash or a wrong parse. And the atomic save path must not leave its
   temp file behind. *)
let test_truncated_files () =
  let image = kernel_image () in
  let sys = make_sys D.System.Qemu image in
  ignore (D.System.run ~max_guest_insns:10_000 sys);
  let good = Snapshot.to_string (D.System.snapshot sys) in
  let path = Filename.temp_file "repro-snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let expect_typed what n =
    let oc = open_out_bin path in
    output_string oc (String.sub good 0 n);
    close_out oc;
    match Snapshot.load_file path with
    | _ -> Alcotest.failf "%s: damage not detected" what
    | exception (Snapshot.Load_error _ | Snapshot.Corrupt _) -> ()
    | exception e ->
      Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)
  in
  expect_typed "zero-length file" 0;
  let len = String.length good in
  List.iter
    (fun n -> expect_typed (Printf.sprintf "file truncated to %d bytes" n) n)
    [ 1; 7; 8; 23; 24; len / 3; len / 2; len - 1 ];
  Snapshot.save_file path (D.System.snapshot sys);
  ignore (Snapshot.load_file path);
  let droppings =
    Array.to_list (Sys.readdir (Filename.dirname path))
    |> List.filter (fun f ->
           String.starts_with ~prefix:(Filename.basename path ^ ".tmp") f)
  in
  Alcotest.(check (list string)) "atomic save leaves no temp file" [] droppings

(* ---- journal text format ------------------------------------------- *)

let test_journal_roundtrip () =
  let events =
    [
      Journal.Irq { at = 7; pc = 0x100018 };
      Journal.Fault { at = 42; site = "bus-read" };
      Journal.Dev_read { at = 99; paddr = 0xF000_1000; value = 0xDEAD_BEEF };
      Journal.Diverge { at = 100; pc = 0x1234; detail = "shadow-repair r3" };
      Journal.Halt { at = 101; code = 0xE2 };
    ]
  in
  let j = Journal.create () in
  List.iter (Journal.record j) events;
  let text = Journal.to_string j in
  Alcotest.(check (list string))
    "text round-trip"
    (List.map Journal.string_of_event events)
    (List.map Journal.string_of_event (Journal.events (Journal.of_string text)));
  match Journal.event_of_string "gibberish 1 2 3" with
  | _ -> Alcotest.fail "malformed journal line must raise"
  | exception Failure _ -> ()

(* ---- post-mortem profile determinism across save/restore ----------- *)

(* The hot-block profile section of watchdog post-mortem dumps must be
   deterministic across a save -> restore boundary: re-running the
   identical interrupt/save/thaw/resume sequence (the scope holding the
   hot-block table, like the trace and the ledger, is not a snapshot
   section: one scope is handed to both machines in-process) must
   render byte-identical post-mortem profiles, and the restored run
   must still converge to the uninterrupted run's guest state. The
   engine-side counters are NOT compared against the uninterrupted
   run: stopping at the budget forces a clean dispatch point the
   uninterrupted run may not have, so the watchdog's rollback target
   after a livelock can differ, re-executing a different amount of
   (guest-invisible) work. *)
let test_postmortem_profile_determinism () =
  let image = kernel_image () in
  let inject () =
    let i = Fi.create ~seed:11 ~rate:0.0 () in
    Fi.set_rate i Fi.Host_livelock 0.05;
    i
  in
  let guest_state sys =
    let rt = sys.D.System.rt in
    ( Cpu.save_words rt.T.Runtime.cpu,
      Digest.to_hex (Digest.string (Repro_common.Ram.to_string rt.T.Runtime.ctx.Exec.ram)),
      D.System.uart_output sys )
  in
  (* uninterrupted reference run *)
  let full = make_sys ~inject:(inject ()) (D.System.Rules D.Opt.full) image in
  let full_res =
    D.System.run ~max_guest_insns:2_000_000 ~checkpoint_every:4_000 full
  in
  (* one interrupt/save/thaw/resume sequence, post-mortems collected
     across the boundary with the scope carried along *)
  let interrupted () =
    let dumps = ref [] in
    let scope = Repro_perfscope.Scope.create () in
    let on_postmortem ~reason dump = dumps := (reason, dump) :: !dumps in
    let part =
      make_sys ~inject:(inject ()) ~scope (D.System.Rules D.Opt.full) image
    in
    let part_res =
      D.System.run ~max_guest_insns:16_000 ~checkpoint_every:4_000
        ~on_postmortem part
    in
    (match part_res.T.Engine.reason with
    | `Insn_limit -> ()
    | _ -> Alcotest.fail "interrupted run should hit its budget");
    let snap = Snapshot.of_string (Snapshot.to_string (D.System.snapshot part)) in
    let thawed =
      D.System.create
        ~ram_kib:(D.System.snapshot_ram_kib snap)
        ?inject:(D.System.snapshot_injector snap)
        ~scope (D.System.snapshot_mode snap)
    in
    D.System.restore thawed snap;
    let res =
      D.System.run ~max_guest_insns:1_984_000 ~checkpoint_every:4_000
        ~on_postmortem thawed
    in
    let sections =
      List.rev_map (fun (_, d) -> Snapshot.find d "profile") !dumps
    in
    (halt_code res, guest_state thawed, sections)
  in
  let c1, g1, s1 = interrupted () in
  let c2, g2, s2 = interrupted () in
  Alcotest.(check bool) "the watchdog dumped post-mortems" true (s1 <> []);
  Alcotest.(check int) "restored run reaches the clean halt code"
    (halt_code full_res) c1;
  let fc, fm, fu = guest_state full and c, m, u = g1 in
  Alcotest.(check (array int)) "cpu converges with uninterrupted run" fc c;
  Alcotest.(check string) "ram converges with uninterrupted run" fm m;
  Alcotest.(check string) "uart converges with uninterrupted run" fu u;
  Alcotest.(check int) "repeat halt code" c1 c2;
  Alcotest.(check bool) "repeat guest state" true (g1 = g2);
  Alcotest.(check (list string))
    "post-mortem profile sections byte-identical across repeats" s1 s2

(* ---- page-shared RAM --------------------------------------------- *)

module Pages = Repro_common.Pages
module Ram = Repro_common.Ram

let ram_of rt = rt.T.Runtime.ctx.Exec.ram

(* The machine-core capture of a bare runtime. *)
let capture_rt rt =
  let snap = Snapshot.create () in
  Snapshot.capture_machine rt snap;
  snap

(* The page invariant every capture and restore relies on: a page the
   dirty bitmap does not mark holds exactly its [sync] string. *)
let check_clean_pages msg (ctx : Exec.t) =
  let bytes = Ram.to_string ctx.Exec.ram in
  Array.iteri
    (fun i page ->
      if not (Ram.is_dirty ctx.Exec.ram i) then
        if String.sub bytes (i * Pages.size) (String.length page) <> page
        then Alcotest.failf "%s: clean page %d differs from its sync page" msg i)
    (Ram.sync ctx.Exec.ram)

(* Stores that straddle a page boundary must mark both pages, or a
   capture shares the second page's stale string and a restore of it
   loses the bytes. *)
let test_straddling_writes () =
  let rt = T.Runtime.create () in
  let ctx = rt.T.Runtime.ctx and bus = rt.T.Runtime.bus in
  let before = capture_rt rt in
  Ram.set32 ctx.Exec.ram 0x0FFE 0xAABBCCDD;
  Ram.set16 ctx.Exec.ram 0x2FFF 0xEEFF;
  Repro_machine.Bus.write32 bus 0x4FFE 0x11223344;
  Repro_machine.Bus.write8 bus 0x6FFF 0x55;
  let expected = Ram.to_string (ram_of rt) in
  let after = capture_rt rt in
  Alcotest.(check string) "capture holds every written byte" expected
    (Snapshot.find after "ram");
  let changed =
    List.filter
      (fun i -> (Snapshot.ram_pages after).(i) != (Snapshot.ram_pages before).(i))
      (List.init 1024 Fun.id)
  in
  Alcotest.(check (list int)) "the pages touched, first and last byte"
    [ 0; 1; 2; 3; 4; 5; 6 ] changed;
  Snapshot.restore_machine rt before;
  Alcotest.(check string) "restore of the older capture zeroes them"
    (Snapshot.find before "ram")
    (Ram.to_string (ram_of rt));
  Snapshot.restore_machine rt after;
  Alcotest.(check string) "restore of the newer capture brings them back"
    expected
    (Ram.to_string (ram_of rt))

(* The reference capture: RAM from a full copy of the machine's bytes,
   every other section taken from [snap]. *)
let full_copy_capture snap ram =
  let r = Snapshot.create () in
  List.iter
    (fun name ->
      Snapshot.add r name
        (if name = "ram" then Ram.to_string ram else Snapshot.find snap name))
    (Snapshot.names snap);
  r

(* Random interleavings of guest runs (with checkpoints, and without
   any, so restores meet dirty pages), captures and restores — to
   older snapshots, into fresh machines, and once through a snapshot
   whose TLB section fails after RAM is already written back. Page-shared
   captures must serialize exactly as full copies would, and every
   restore must leave RAM equal to the snapshot's. *)
let test_page_sharing_oracle () =
  let image = kernel_image () in
  let mode = D.System.Rules D.Opt.full in
  let sys = ref (make_sys mode image) in
  let ram () = ram_of !sys.D.System.rt in
  let pool = ref [] in
  let keep snap =
    Alcotest.(check string) "capture holds the RAM it was taken from"
      (Ram.to_string (ram ())) (Snapshot.find snap "ram");
    pool := snap :: !pool
  in
  let check_restored what snap =
    Alcotest.(check string) (what ^ ": RAM equals the snapshot's")
      (Snapshot.find snap "ram")
      (Ram.to_string (ram ()))
  in
  let pick prng = List.nth !pool (Repro_common.Prng.int prng (List.length !pool)) in
  let prng = Repro_common.Prng.create ~seed:23 in
  let corrupt_done = ref false in
  for step = 1 to 40 do
    let what = Printf.sprintf "step %d" step in
    (match if !pool = [] then 0 else Repro_common.Prng.int prng 7 with
    | 5 ->
      (* no checkpoint at all: the next restore meets dirty pages *)
      ignore
        (D.System.run ~watchdog:false
           ~max_guest_insns:(500 + Repro_common.Prng.int prng 4_000)
           !sys)
    | 0 | 1 ->
      let n = 500 + Repro_common.Prng.int prng 4_000 in
      let res =
        D.System.run ~max_guest_insns:n ~checkpoint_every:1_500 ~on_checkpoint:keep
          !sys
      in
      if res.T.Engine.reason = `Insn_limit then keep (D.System.snapshot !sys)
    | 2 ->
      let snap = D.System.snapshot !sys in
      Alcotest.(check string) (what ^ ": capture serializes as a full copy")
        (Snapshot.to_string (full_copy_capture snap (ram ())))
        (Snapshot.to_string snap);
      if Snapshot.mem snap "resume" then pool := snap :: !pool
    | 3 ->
      let snap = pick prng in
      D.System.restore !sys snap;
      check_restored (what ^ " (older)") snap
    | 4 ->
      let snap = pick prng in
      let fresh = D.System.create mode in
      D.System.restore fresh snap;
      sys := fresh;
      check_restored (what ^ " (fresh machine)") snap
    | _ ->
      let snap = pick prng in
      if not !corrupt_done then begin
        corrupt_done := true;
        let bad = Snapshot.create () in
        List.iter
          (fun name ->
            Snapshot.add bad name
              (if name = "tlb" then "\001" else Snapshot.find snap name))
          (Snapshot.names snap);
        (match D.System.restore !sys bad with
        | () -> Alcotest.fail "a truncated tlb section restored"
        | exception Snapshot.Corrupt _ -> ());
        check_restored (what ^ " (failed at tlb)") snap
      end;
      D.System.restore !sys snap;
      check_restored (what ^ " (after the failure)") snap);
    check_clean_pages what !sys.D.System.rt.T.Runtime.ctx
  done;
  Alcotest.(check bool) "the corrupt restore ran" true !corrupt_done

(* Checkpoint cost follows the pages written: after a restore, a
   capture copies exactly the k pages dirtied since, and shares the
   other 1024 - k with the restored snapshot. *)
let test_capture_scales_with_dirty_pages () =
  let rt = T.Runtime.create () in
  let ctx = rt.T.Runtime.ctx in
  for i = 0 to 1023 do
    Ram.set32 ctx.Exec.ram ((i * Pages.size) + 8) (i + 1)
  done;
  let base = capture_rt rt in
  let base_ram = Snapshot.find base "ram" in
  List.iter
    (fun k ->
      Snapshot.restore_machine rt base;
      let dirtied = List.init k (fun j -> (j * 389) mod 1024) in
      List.iter (fun p -> Ram.set8 ctx.Exec.ram ((p * Pages.size) + 100) 0x5A) dirtied;
      let snap = capture_rt rt in
      let fresh =
        List.filter
          (fun i -> (Snapshot.ram_pages snap).(i) != (Snapshot.ram_pages base).(i))
          (List.init 1024 Fun.id)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "k = %d: new strings are exactly the dirtied pages" k)
        (List.sort compare dirtied) fresh;
      let again = capture_rt rt in
      Alcotest.(check bool)
        (Printf.sprintf "k = %d: a capture with no writes since copies nothing" k)
        true
        (Array.for_all2 ( == ) (Snapshot.ram_pages again) (Snapshot.ram_pages snap)))
    [ 0; 1; 7; 100; 1024 ];
  Alcotest.(check string) "the restored snapshot was never written"
    base_ram (Snapshot.find base "ram")

(* A machine's RAM costs only the pages it wrote, and never the pages
   of another machine: every unwritten page is the one shared zero
   page, which no write reaches. *)
let test_ram_is_lazy_and_isolated () =
  let rt = T.Runtime.create () in
  let ram = ram_of rt in
  Alcotest.(check int) "a fresh runtime owns no page" 0 (Ram.owned ram);
  let zeros = capture_rt rt in
  Ram.set32 ram 0x5000 0xCAFEF00D;
  Alcotest.(check int) "one write owns one page" 1 (Ram.owned ram);
  Ram.set32 ram 0x8FFE 0x01020304;
  Alcotest.(check int) "a straddling write owns two more" 3 (Ram.owned ram);
  let other = T.Runtime.create () in
  Alcotest.(check int) "a second runtime reads 0 there" 0 (Ram.get32 (ram_of other) 0x5000);
  Alcotest.(check int) "and owns no page" 0 (Ram.owned (ram_of other));
  Snapshot.restore_machine rt zeros;
  Alcotest.(check int) "restoring an all-zero page reads back 0" 0 (Ram.get32 ram 0x5000);
  Alcotest.(check int) "straddled bytes read back 0" 0 (Ram.get32 ram 0x8FFE);
  Alcotest.(check int) "its pages stay owned" 3 (Ram.owned ram);
  let fresh = T.Runtime.create () in
  Snapshot.restore_machine fresh (Snapshot.of_string (Snapshot.to_string zeros));
  Alcotest.(check int) "zero pages read from a file own nothing" 0
    (Ram.owned (ram_of fresh))

(* Checkpoints of one machine share every section that did not change
   since the last capture or restore, physically: nothing is
   re-encoded into a new string. *)
let test_captures_share_sections () =
  let image = kernel_image () in
  let mode = D.System.Rules D.Opt.full in
  let sys = make_sys mode image in
  ignore (D.System.run ~max_guest_insns:12_000 sys);
  D.System.restore sys (D.System.snapshot sys);
  let first = D.System.snapshot sys in
  let second = D.System.snapshot sys in
  let section snap name =
    if name = "ram" then Obj.repr (Snapshot.ram_pages snap) else Obj.repr (Snapshot.find snap name)
  in
  let names = Snapshot.names first in
  Alcotest.(check (list string)) "same sections" names (Snapshot.names second);
  Alcotest.(check (list string)) "no execution between: every section shared" []
    (List.filter (fun n -> section first n != section second n) names);
  Repro_mmu.Mmu.Tlb.flush sys.D.System.rt.T.Runtime.ctx.Exec.tlb;
  let flushed = D.System.snapshot sys in
  Alcotest.(check (list string)) "after a TLB flush only tlb changes bytes" [ "tlb" ]
    (List.filter (fun n -> Snapshot.find flushed n <> Snapshot.find second n) names);
  Alcotest.(check (list string)) "and only tlb is a new string" [ "tlb" ]
    (List.filter (fun n -> section flushed n != section second n) names);
  let restored snap =
    let m = D.System.create mode in
    D.System.restore m snap;
    ignore (D.System.run ~max_guest_insns:5_000 m);
    (fingerprint m, Snapshot.to_string (D.System.snapshot m))
  in
  let fa, sa = restored first and fb, sb = restored second in
  check_fingerprint "restore from the shared capture" fa fb;
  Alcotest.(check bool) "and its next capture is byte-identical" true (sa = sb)

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "ruleset serialize round-trip" `Quick
          test_serialize_roundtrip;
        Alcotest.test_case "same-seed determinism (3 engines)" `Quick
          test_determinism;
        Alcotest.test_case "save/restore bit-identity (qemu)" `Quick
          test_restore_qemu;
        Alcotest.test_case "save/restore bit-identity (rules)" `Quick
          test_restore_rules;
        Alcotest.test_case "save/restore bit-identity (inject+shadow)" `Quick
          test_restore_inject;
        Alcotest.test_case "livelock watchdog recovery" `Quick
          test_watchdog_recovery;
        Alcotest.test_case "divergence post-mortem replay" `Quick
          test_divergence_replay;
        Alcotest.test_case "typed load errors" `Quick test_load_error;
        Alcotest.test_case "container corruption detected" `Quick
          test_corruption_detected;
        Alcotest.test_case "corrupt-every-section fuzz" `Quick
          test_corrupt_every_section;
        Alcotest.test_case "truncated + zero-length files load typed" `Quick
          test_truncated_files;
        Alcotest.test_case "restore keeps quarantine + floor" `Quick
          test_restore_keeps_quarantine;
        Alcotest.test_case "journal text round-trip" `Quick
          test_journal_roundtrip;
        Alcotest.test_case "post-mortem profiles deterministic across restore"
          `Quick test_postmortem_profile_determinism;
        Alcotest.test_case "straddling writes mark both pages" `Quick
          test_straddling_writes;
        Alcotest.test_case "page-shared captures match full copies" `Quick
          test_page_sharing_oracle;
        Alcotest.test_case "capture copies only the dirtied pages" `Quick
          test_capture_scales_with_dirty_pages;
        Alcotest.test_case "RAM owns only written pages, per machine" `Quick
          test_ram_is_lazy_and_isolated;
        Alcotest.test_case "captures share unchanged sections" `Quick
          test_captures_share_sections;
      ] );
  ]
