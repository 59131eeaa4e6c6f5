module T = Repro_tcg
module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Fi = Repro_faultinject.Faultinject
module Snapshot = Repro_snapshot.Snapshot
module Depot = Repro_aotcache.Depot
module Scope = Repro_perfscope.Scope
module Phase = Repro_perfscope.Phase
module Ledger = Repro_perfscope.Ledger
module Jsonx = Repro_observe.Jsonx
module Static = Repro_covscope.Static

(* The persistent AOT code depot: durability (crash-atomic generation
   commits), integrity (every injected or hand-crafted corruption loads
   as a typed [Depot_error], never anything else), compatibility (a
   depot from a different translator configuration is refused, not
   misapplied) and the payoff — a warm boot that is architecturally
   identical to cold with (almost) zero translation work. *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) () =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let make_sys ?inject ?scope ?(shadow_depth = 0) mode image =
  let sys = D.System.create ?inject ?scope ~shadow_depth mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  sys

let halt_code res =
  match res.T.Engine.reason with
  | `Halted c -> c
  | `Insn_limit | `Deadline -> Alcotest.fail "run hit its instruction limit"
  | `Livelock pc -> Alcotest.failf "unrecovered livelock at %#x" pc

let guest_outcome sys res = (halt_code res, D.System.uart_output sys)

let temp_dir () =
  let path = Filename.temp_file "repro-depot" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* One cold full run, shared by the tests below: its outcome is the
   architectural ground truth and its capture is the reference depot. *)
let mode = D.System.Rules D.Opt.with_regions

let cold_ctx =
  lazy
    (let image = kernel_image () in
     let scope = Scope.create () in
     let sys = make_sys ~scope mode image in
     let res = D.System.run ~max_guest_insns:2_000_000 sys in
     let outcome = guest_outcome sys res in
     let depot = D.System.depot_capture sys in
     (image, outcome, Scope.phase_count scope Phase.Translate, depot))

let expect_depot_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: damage not detected" what
  | exception Depot.Depot_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)

(* ---- container integrity: fuzz the blob bytes ---------------------- *)

let test_container_fuzz () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let good = Depot.to_string depot in
  ignore (Depot.of_string good);
  let load what s = expect_depot_error what (fun () -> Depot.of_string s) in
  load "empty string" "";
  (* truncation sweep: every prefix must fail typed *)
  let len = String.length good in
  let step = max 1 (len / 97) in
  let k = ref 0 in
  while !k < len do
    load (Printf.sprintf "truncate at %d" !k) (String.sub good 0 !k);
    k := !k + step
  done;
  (* random single-bit flips: the whole-body checksum means any flip
     anywhere must surface *)
  let prng = Repro_common.Prng.create ~seed:4077 in
  for _ = 1 to 200 do
    let pos = Repro_common.Prng.int prng len in
    let bit = 1 lsl Repro_common.Prng.int prng 8 in
    let b = Bytes.of_string good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    load (Printf.sprintf "random flip at %d" pos) (Bytes.to_string b)
  done

(* ---- a depot blob is a snapshot container ------------------------- *)

let test_section_blame () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let good = Depot.to_string depot in
  let snap = Snapshot.of_string good in
  Alcotest.(check (list string)) "the container lists the depot's sections"
    [ "generation"; "compat"; "rules"; "cache"; "health"; "quarantine" ]
    (Snapshot.names snap);
  (* Each section is framed as a name, a payload (both length-prefixed)
     and a checksum, after the 24-byte header and the section count;
     every number is a varint. *)
  let varint n = String.length (Snapshot.Enc.encode (fun b -> Snapshot.Enc.nat b n)) in
  let prefixed s = varint (String.length s) + String.length s in
  let framed name =
    let p = Snapshot.find snap name in
    prefixed name + prefixed p + varint (Repro_common.Codec.fnv1a32 p)
  in
  let cache = Depot.cache_payload depot in
  let at =
    24 + varint 6
    + List.fold_left (fun acc n -> acc + framed n) 0 [ "generation"; "compat"; "rules" ]
    + prefixed "cache" + varint (String.length cache)
  in
  Alcotest.(check string) "the cache payload sits where the framing says" cache
    (String.sub good at (String.length cache));
  let b = Bytes.of_string good in
  let pos = at + (String.length cache / 2) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  match Depot.of_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "a flipped cache byte was accepted"
  | exception Depot.Depot_error { section; _ } ->
    Alcotest.(check string) "a flip inside the cache payload blames it" "cache"
      section

(* ---- file-level damage: truncated and zero-length blobs ------------ *)

let test_file_damage () =
  let _, _, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  let blob = Filename.concat dir (Depot.blob_name depot) in
  let good = In_channel.with_open_bin blob In_channel.input_all in
  let clobber n =
    Out_channel.with_open_bin blob (fun oc ->
        Out_channel.output_string oc (String.sub good 0 n))
  in
  let len = String.length good in
  List.iter
    (fun n ->
      clobber n;
      expect_depot_error
        (Printf.sprintf "blob file truncated to %d bytes" n)
        (fun () -> Depot.load dir))
    [ 0; 1; 23; 24; len / 2; len - 1 ];
  (* restore the bytes: the depot is whole again *)
  clobber len;
  ignore (Depot.load dir);
  (* a missing blob (manifest points into the void) is typed too *)
  Sys.remove blob;
  expect_depot_error "missing blob" (fun () -> Depot.load dir)

(* ---- the crash-commit protocol ------------------------------------- *)

let test_commit_protocol () =
  let _, _, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  let g1 = Depot.save ~dir depot in
  Alcotest.(check int) "first commit is generation 1" 1 g1;
  let blob1 = Depot.blob_name depot in
  (* a crashed save leaves an orphan blob and no manifest update: the
     loader must keep serving generation 1 and never read the orphan *)
  Out_channel.with_open_bin
    (Filename.concat dir "depot-99.bin")
    (fun oc -> Out_channel.output_string oc "garbage from a crashed writer");
  let d = Depot.load dir in
  Alcotest.(check int) "orphan blob ignored" 1 (Depot.generation d);
  (* the next successful commit bumps the generation and collects both
     the old blob and the orphan *)
  let g2 = Depot.save ~dir depot in
  Alcotest.(check int) "second commit is generation 2" 2 g2;
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "exactly one blob + manifest after GC"
    [ Depot.manifest_name; Depot.blob_name depot ]
    files;
  Alcotest.(check bool) "generation moved on" true (Depot.blob_name depot <> blob1);
  (* a manifest whose byte count disagrees with the blob (the torn-
     write signature) is typed *)
  let manifest = Filename.concat dir Depot.manifest_name in
  let text = In_channel.with_open_bin manifest In_channel.input_all in
  let lied =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line > 6 && String.sub line 0 6 = "bytes " then
             "bytes 17"
           else line)
         (String.split_on_char '\n' text))
  in
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc lied);
  expect_depot_error "manifest byte-count lie" (fun () -> Depot.load dir);
  (* garbage where the manifest should be is typed, not a parse crash *)
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc "not a manifest at all\n");
  expect_depot_error "garbage manifest" (fun () -> Depot.load dir)

(* ---- injected faults on the save/load paths ------------------------ *)

let test_injected_faults () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let armed site =
    let inj = Fi.create ~seed:9 ~rate:0.0 () in
    Fi.set_rate inj site 1.0;
    inj
  in
  (* torn write: half the blob reaches disk, the manifest still commits
     — the next load must catch it from the manifest's byte count *)
  with_dir (fun dir ->
      ignore (Depot.save ~inject:(armed Fi.Depot_torn) ~dir depot);
      expect_depot_error "torn write" (fun () -> Depot.load dir));
  (* read-side truncation and bit flip *)
  with_dir (fun dir ->
      ignore (Depot.save ~dir depot);
      expect_depot_error "injected truncation" (fun () ->
          Depot.load ~inject:(armed Fi.Depot_trunc) dir);
      expect_depot_error "injected bit flip" (fun () ->
          Depot.load ~inject:(armed Fi.Depot_flip) dir);
      (* the same depot, injector disarmed, still loads: the faults
         damaged the read, not the artifact *)
      ignore (Depot.load dir))

(* ---- the payoff: warm boot ≡ cold boot, translate ≈ 0 -------------- *)

(* Also the fleet story: several machines boot from the one saved
   depot, and each must be architecturally identical to the cold
   reference while doing a small fraction of its translation work. *)
let test_warm_boot_identity () =
  let image, cold_outcome, cold_translate, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  for machine = 1 to 2 do
    let d = Depot.load dir in
    let scope = Scope.create () in
    let sys = make_sys ~scope mode image in
    let installed_boot = D.System.depot_install sys d in
    Alcotest.(check bool)
      (Printf.sprintf "machine %d: boot wave installs recipes" machine)
      true (installed_boot > 0);
    let res = D.System.run ~max_guest_insns:2_000_000 sys in
    let warm_outcome = guest_outcome sys res in
    Alcotest.(check (pair int string))
      (Printf.sprintf "machine %d: warm outcome = cold outcome" machine)
      cold_outcome warm_outcome;
    let warm_translate = Scope.phase_count scope Phase.Translate in
    Alcotest.(check bool)
      (Printf.sprintf
         "machine %d: warm translate (%d) under a tenth of cold (%d)" machine
         warm_translate cold_translate)
      true
      (warm_translate * 10 < cold_translate);
    let installed, pending = D.System.depot_coverage sys in
    Alcotest.(check int)
      (Printf.sprintf "machine %d: every recipe installed" machine)
      0 pending;
    Alcotest.(check bool)
      (Printf.sprintf "machine %d: coverage at least the boot wave" machine)
      true
      (installed >= installed_boot)
  done

(* ---- re-translation records no statics ----------------------------- *)

(* Depot install waves (the boot wave and the miss-triggered ones) and
   snapshot restore re-translate code: none of that work may land in
   the coordination ledger's statics or in the coverage per-rule sink.
   The image's live set is wholly covered by its depot, so a warm run
   translates nothing itself and both sinks must stay empty. *)
let test_rebuilds_record_no_statics () =
  let image, _, _, depot = Lazy.force cold_ctx in
  let sinked () =
    let ledger = Ledger.create () in
    let sys = D.System.create ~ledger mode in
    (sys, ledger, D.Translator_rule.rule_sites (Option.get sys.D.System.rule_translator))
  in
  let check what ledger static =
    let tb_statics =
      Option.bind (Jsonx.member "tb_statics" (Jsonx.parse (Ledger.to_json ledger)))
        Jsonx.to_int
    in
    Alcotest.(check (option int)) (what ^ ": no translation attributed") (Some 0)
      tb_statics;
    Alcotest.(check int) (what ^ ": no static savings") 0
      (Ledger.total_static_ops ledger + Ledger.total_static_insns ledger);
    Alcotest.(check int) (what ^ ": no rule sites") 0
      (List.length (Static.entries static))
  in
  let sys, ledger, static = sinked () in
  K.load image (fun base words -> D.System.load_image sys base words);
  let boot = D.System.depot_install sys depot in
  check "boot wave" ledger static;
  let _, pending = D.System.depot_coverage sys in
  Alcotest.(check bool) "recipes left for miss-triggered waves" true (pending > 0);
  ignore (halt_code (D.System.run ~max_guest_insns:2_000_000 sys));
  let installed, _ = D.System.depot_coverage sys in
  Alcotest.(check bool) "a miss-triggered wave installed more" true
    (installed > boot);
  check "warm run" ledger static;
  let part = make_sys mode image in
  (match
     (D.System.run ~max_guest_insns:15_000 ~checkpoint_every:4_000 part)
       .T.Engine.reason
   with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "interrupted run should hit its budget");
  let thawed, ledger, static = sinked () in
  D.System.restore thawed (D.System.snapshot part);
  check "snapshot restore" ledger static

(* ---- compatibility: a foreign depot is refused, never misapplied --- *)

let variant ?mode:m ?digest ?hot depot =
  let c = Depot.compat depot in
  let c =
    {
      Depot.c_mode = Option.value m ~default:c.Depot.c_mode;
      c_rules_digest = Option.value digest ~default:c.Depot.c_rules_digest;
      c_hot_threshold = Option.value hot ~default:c.Depot.c_hot_threshold;
    }
  in
  Depot.create ~compat:c ~rules:(Depot.rules depot)
    ~cache:(Depot.cache_payload depot) ~health:(Depot.health depot)

let reject what d =
  let image, cold_outcome, _, _ = Lazy.force cold_ctx in
  let sys = make_sys mode image in
  (match D.System.depot_install sys d with
  | _ -> Alcotest.failf "%s: incompatible depot accepted" what
  | exception Depot.Depot_error { section; _ } ->
    Alcotest.(check string) (what ^ ": blames the compat key") "compat"
      section
  | exception e ->
    Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e));
  (* the refusal must leave the machine pristine: a cold run on the
     very same instance still reaches the reference outcome *)
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  Alcotest.(check (pair int string))
    (what ^ ": cold fallback reaches the reference outcome")
    cold_outcome (guest_outcome sys res)

let test_compat_rejection () =
  let image, _, _, depot = Lazy.force cold_ctx in
  let c = Depot.compat depot in
  reject "mutated ruleset digest"
    (variant ~digest:(c.Depot.c_rules_digest lxor 0xBEEF) depot);
  reject "different optimization mode" (variant ~mode:"rules:full" depot);
  reject "different hot threshold"
    (variant ~hot:(c.Depot.c_hot_threshold + 1) depot);
  (* cross-mode for real: a depot captured under rules:full refuses to
     install into a rules:+regions machine (and vice versa is the same
     check), because region recipes only replay under the fusion
     configuration that recorded them *)
  let full_sys = make_sys (D.System.Rules D.Opt.full) image in
  ignore (D.System.run ~max_guest_insns:2_000_000 full_sys);
  let full_depot = D.System.depot_capture full_sys in
  reject "depot captured under rules:full" full_depot

(* A depot written before rule sets were codec bytes: its [rules]
   section is text and its compatibility digest the old walk's (here
   the builtin set's, 0x2aa67e2f). Verification names [rules]; a warm
   boot cannot adopt the rules, builds its own, and the digest refuses
   the code, so the machine boots cold to the reference outcome. *)
let test_text_rules_depot () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let old =
    Depot.of_string
      (Depot.to_string
         (Depot.create
            ~compat:{ (Depot.compat depot) with Depot.c_rules_digest = 0x2aa67e2f }
            ~rules:Test_rules.old_text_file ~cache:(Depot.cache_payload depot)
            ~health:(Depot.health depot)))
  in
  (match D.System.depot_check old with
  | _ -> Alcotest.fail "verification accepted a text rules section"
  | exception Depot.Depot_error { section; _ } ->
    Alcotest.(check string) "verification blames the rules" "rules" section);
  (match R.Serialize.load (Depot.rules old) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "text rules loaded");
  reject "depot with text rules" old

(* ---- self-repair: poisoned recipes stay quarantined ---------------- *)

let test_quarantine_honored () =
  let image, cold_outcome, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  (* baseline: full installation *)
  let full_installed =
    ignore (Depot.save ~dir depot);
    let sys = make_sys mode image in
    ignore (D.System.depot_install sys (Depot.load dir));
    ignore (D.System.run ~max_guest_insns:2_000_000 sys);
    fst (D.System.depot_coverage sys)
  in
  (* poison one recipe's guest PC (as the shadow-verification write-
     back would) and recommit *)
  let victim_pc =
    let sys = make_sys mode image in
    ignore (D.System.depot_install sys (Depot.load dir));
    ignore (D.System.run ~max_guest_insns:2_000_000 sys);
    match T.Tb.Cache.to_list sys.D.System.cache with
    | tb :: _ -> tb.T.Tb.guest_pc
    | [] -> Alcotest.fail "empty cache after a full run"
  in
  let d = Depot.load dir in
  Alcotest.(check bool) "quarantining a new PC reports growth" true
    (Depot.quarantine_pcs d [ victim_pc ]);
  Alcotest.(check bool) "re-quarantining the same PC does not" false
    (Depot.quarantine_pcs d [ victim_pc ]);
  ignore (Depot.save ~dir d);
  (* the poisoned entry never installs again; the machine cold-
     translates that PC and stays architecturally correct *)
  let d' = Depot.load dir in
  Alcotest.(check (list int)) "poison survives the round-trip" [ victim_pc ]
    (Depot.quarantined_pcs d');
  let sys = make_sys mode image in
  ignore (D.System.depot_install sys d');
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  Alcotest.(check (pair int string)) "poisoned warm boot still correct"
    cold_outcome (guest_outcome sys res);
  Alcotest.(check bool)
    (Printf.sprintf "fewer recipes served (%d with poison, %d without)"
       (fst (D.System.depot_coverage sys))
       full_installed)
    true
    (fst (D.System.depot_coverage sys) < full_installed)

(* ---- install waves are machine-neutral ----------------------------- *)

(* Every section [Snapshot.capture_machine] writes, by name. *)
let machine_sections sys =
  let snap = Snapshot.create () in
  Snapshot.capture_machine sys.D.System.rt snap;
  List.map (fun name -> (name, Snapshot.find snap name)) (Snapshot.names snap)

(* [sections] with the write-protect TLB tags of [tbs] cleared — the
   one machine change an install makes on purpose, exactly as cold
   translation of the same TBs would. *)
let write_protected sections (tbs : T.Tb.t list) =
  List.map
    (fun (name, payload) ->
      if name <> "tlb" then (name, payload)
      else begin
        let d = Snapshot.Dec.of_string payload in
        let tlb = Snapshot.Dec.int_array d in
        List.iter
          (fun (tb : T.Tb.t) ->
            Repro_mmu.Mmu.Tlb.clear_write_tag tlb tb.T.Tb.guest_pc;
            Repro_mmu.Mmu.Tlb.clear_write_tag tlb
              (tb.T.Tb.guest_pc + (4 * tb.T.Tb.guest_len) - 4))
          tbs;
        let b = Snapshot.Enc.create () in
        Snapshot.Enc.int_array b tlb;
        (name, Snapshot.Enc.contents b)
      end)
    sections

(* The boot wave and a miss-triggered wave, with the injector's
   page-walk and bus-read sites armed so every translation fetch draws
   from its PRNG: afterwards the machine is byte-identical to before
   but for the installed code's write-protect tags, and the injector
   has recorded no draw. *)
let test_wave_neutrality () =
  let image, _, _, depot = Lazy.force cold_ctx in
  let inj = Fi.create ~seed:23 ~rate:0.0 () in
  List.iter (fun site -> Fi.set_rate inj site 0.25) [ Fi.Walk_corrupt; Fi.Bus_read ];
  let sys = make_sys ~inject:inj mode image in
  let neutral what wave =
    let before = machine_sections sys and draws = Fi.total_events inj in
    wave ();
    let after = machine_sections sys in
    let expected = write_protected before (T.Tb.Cache.to_list sys.D.System.cache) in
    Alcotest.(check (list string))
      (what ^ ": same sections") (List.map fst expected) (List.map fst after);
    List.iter2
      (fun (name, want) (_, got) ->
        Alcotest.(check bool) (Printf.sprintf "%s: %s unchanged" what name) true
          (want = got))
      expected after;
    Alcotest.(check int) (what ^ ": injector draws unchanged") draws
      (Fi.total_events inj)
  in
  neutral "boot wave" (fun () ->
      Alcotest.(check bool) "boot wave installs recipes" true
        (D.System.depot_install sys depot > 0));
  (* Run into the MMU-on world (the run also arms the bus site), then
     drop every install, as a forced TB flush would, and take a miss on
     a recipe of the current regime. *)
  (match (D.System.run ~watchdog:false ~max_guest_insns:20_000 sys).T.Engine.reason with
  | `Insn_limit -> ()
  | _ -> Alcotest.fail "the warm run should still be going");
  let cpu = D.System.cpu sys in
  let privileged = T.Runtime.privileged sys.D.System.rt
  and mmu_on = Repro_arm.Cpu.mmu_enabled cpu in
  Alcotest.(check bool) "the guest turned its MMU on" true mmu_on;
  let victim =
    List.find
      (fun (tb : T.Tb.t) -> tb.T.Tb.privileged = privileged && tb.T.Tb.mmu_on)
      (T.Tb.Cache.to_list sys.D.System.cache)
  in
  T.Tb.Cache.flush sys.D.System.cache;
  (* the first miss after the flush, on no recipe, forgets the earlier
     generation's installs, so they are neither served nor kept alive *)
  Alcotest.(check bool) "a miss on no recipe serves nothing" true
    (D.System.depot_hit sys ~pc:0xffff_fff0 = None);
  Alcotest.(check int) "the flushed installs are forgotten" 0
    (fst (D.System.depot_coverage sys));
  neutral "miss wave" (fun () ->
      match D.System.depot_hit sys ~pc:victim.T.Tb.guest_pc with
      | Some tb ->
        Alcotest.(check int) "the miss is served at its PC" victim.T.Tb.guest_pc
          tb.T.Tb.guest_pc
      | None -> Alcotest.fail "the miss wave served nothing")

(* ---- format skew and altered guest code ---------------------------- *)

let mov_r0 value =
  let module I = Repro_arm.Insn in
  Repro_arm.Encode.encode
    (I.make (I.Dp { op = I.MOV; s = false; rd = 0; rn = 0; op2 = I.imm_operand_exn value }))

let test_format_and_code_rejection () =
  let image, _, _, depot = Lazy.force cold_ctx in
  (* a blob written by a version-1 build: the version word is the first
     header field, outside every checksum *)
  let blob = Bytes.of_string (Depot.to_string depot) in
  Bytes.set_int64_le blob 8 1L;
  (match Depot.of_string (Bytes.to_string blob) with
  | _ -> Alcotest.fail "a version-1 depot was accepted"
  | exception Depot.Depot_error { section; _ } ->
    Alcotest.(check string) "version skew blames the container" "container" section);
  (* Guest code altered after capture: the boot-wave recipe whose first
     word changed must stay out of the cache, pending or dead. *)
  let clean = make_sys mode image in
  let boot_installed = D.System.depot_install clean depot in
  let target =
    List.find
      (fun (tb : T.Tb.t) -> not tb.T.Tb.mmu_on)
      (T.Tb.Cache.to_list clean.D.System.cache)
  in
  let pc = target.T.Tb.guest_pc and privileged = target.T.Tb.privileged in
  let altered = make_sys mode image in
  let original = Repro_arm.Encode.encode target.T.Tb.guest_insns.(0) in
  D.System.load_image altered pc
    [| (if original = mov_r0 0 then mov_r0 1 else mov_r0 0) |];
  let installed = D.System.depot_install altered depot in
  Alcotest.(check bool) "the altered recipe is not installed" true
    (T.Tb.Cache.find_plain altered.D.System.cache ~pc ~privileged ~mmu_on:false
    = None);
  Alcotest.(check bool)
    (Printf.sprintf "fewer boot-wave installs (%d altered, %d clean)" installed
       boot_installed)
    true (installed < boot_installed)

(* ---- poison follows the TBs a depot served, not their PCs ---------- *)

(* A user program that rewrites the instruction at [patch] on every
   pass through the word at [target] (the self-modifying-code drill).
   With [~smc:false] the word points at user data instead: the same
   instructions, no self-modification. *)
let smc_program ~smc =
  let module Asm = Repro_arm.Asm in
  let module I = Repro_arm.Insn in
  let a = Asm.create ~origin:K.user_code_base () in
  Asm.mov32 a I.sp K.user_stack_top;
  Asm.mov a 5 0;
  Asm.branch_to a "patch";
  Asm.label a "patch";
  Asm.mov a 0 (Char.code '0');
  Asm.branch_to a "print";
  Asm.label a "print";
  Asm.mov a 7 K.sys_putchar;
  Asm.svc a 0;
  Asm.add a 5 5 1;
  Asm.cmp a 5 5;
  Asm.branch_to a ~cond:Repro_arm.Cond.EQ "done";
  Asm.mov32_label a 3 "target";
  Asm.ldr a 1 3 0;
  Asm.mov32 a 2 (mov_r0 (Char.code '1'));
  Asm.add_r a 2 2 5;
  Asm.sub a 2 2 1;
  Asm.str a 2 1 0;
  Asm.branch_to a "patch";
  Asm.label a "done";
  Asm.mov a 7 K.sys_exit;
  Asm.svc a 0;
  Asm.label a "target";
  let patch = Asm.lookup a "patch" in
  Asm.word a (if smc then patch else K.user_data_base);
  (patch, K.build ~user_program:(snd (Asm.assemble a)) ())

(* The depot comes from the program without self-modification, so it
   holds every TB the run needs. On the warm machine the first pass is
   served entirely from the depot; from then on SMC has killed the
   recipe at [patch], and every later pass translates that PC cold.
   The injector corrupts exactly the rule translations the machine
   makes itself (replays carry their recorded injection state), so the
   cold TB at [patch] fails shadow verification. It was never
   depot-served: nothing may be poisoned. *)
let test_poison_needs_a_served_tb () =
  let patch, image = smc_program ~smc:true in
  let _, clean = smc_program ~smc:false in
  let cold = make_sys mode clean in
  ignore (halt_code (D.System.run cold));
  let depot = D.System.depot_capture cold in
  let inj = Fi.create ~seed:5 ~rate:0.0 () in
  Fi.set_rate inj Fi.Rule_corrupt 1.0;
  let sys = make_sys ~inject:inj ~shadow_depth:4 mode image in
  ignore (D.System.depot_install sys depot);
  let res = D.System.run ~watchdog:false sys in
  Alcotest.(check (pair int string)) "the repaired run prints every pass"
    (0x34, "01234") (guest_outcome sys res);
  let diverged_at =
    List.filter_map
      (function Repro_snapshot.Journal.Diverge { pc; _ } -> Some pc | _ -> None)
      (Repro_snapshot.Journal.events (D.System.journal sys))
  in
  Alcotest.(check (list int)) "the cold TB at the patched PC diverged" [ patch ]
    diverged_at;
  Alcotest.(check (list int)) "no depot entry poisoned" []
    (D.System.depot_poisoned sys)

(* ---- fleet write-back: breaker verdicts persist in the depot ------- *)

let test_rule_writeback () =
  let image, cold_outcome, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  let d = Depot.load dir in
  (* pick a real rule id out of the live machine's ruleset *)
  let probe = make_sys mode image in
  let rs = Option.get probe.D.System.ruleset in
  let victim = (List.hd (R.Ruleset.rules rs)).R.Rule.id in
  Alcotest.(check bool) "quarantining a rule id reports change" true
    (D.System.depot_quarantine_rules d [ victim ]);
  Alcotest.(check bool) "re-quarantining it does not" false
    (D.System.depot_quarantine_rules d [ victim ]);
  ignore (Depot.save ~dir d);
  (* a warm boot from the written-back depot starts with the rule
     already demoted — and still reproduces the reference outcome,
     because quarantined rules fall back to baseline translation *)
  let sys = make_sys mode image in
  ignore (D.System.depot_install sys (Depot.load dir));
  let rs' = Option.get sys.D.System.ruleset in
  Alcotest.(check bool) "warm boot inherits the quarantine" true
    (List.mem victim (R.Ruleset.quarantined_ids rs'));
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  Alcotest.(check (pair int string)) "demoted warm boot still correct"
    cold_outcome (guest_outcome sys res)

(* ---- the chain graph is validated at decode ------------------------ *)

(* A one-instruction TB at [pc] with one exit slot: the smallest block
   the cache codec carries. *)
let tiny_tb ~pc =
  {
    T.Tb.id = 1;
    guest_pc = pc;
    privileged = true;
    mmu_on = false;
    prog =
      Repro_x86.Prog.of_code
        ~code:[| Repro_x86.Insn.Exit { slot = 0 } |]
        ~tags:[| Repro_x86.Insn.Tag_glue |];
    exits = [| T.Tb.Indirect |];
    links = [||];
    guest_insns = [||];
    guest_len = 1;
    fault_producers = [||];
    injected = `None;
    prov = [||];
    hot = 0;
    region_ids = [||];
    meta = T.Tb.No_meta;
  }

(* A cache section of one plain entry, the tiny TB, whose single link
   slot targets [target]; the combined index space has one entry, so
   only -1 and 0 are valid targets. *)
let one_recipe_cache ~pc ~target =
  let module C = Snapshot.Enc in
  let b = C.create () in
  C.nat b 1 (* one plain entry: *);
  Repro_snapshot.Tbcodec.enc_tb b (tiny_tb ~pc);
  C.nat b 0 (* hot *);
  C.array b C.int [| target |] (* its one link slot *);
  C.nat b 0 (* no members *);
  C.bool b false (* no meta *);
  C.nat b 0 (* no regions *);
  C.contents b

let test_link_targets_validated () =
  let image, _, _, depot = Lazy.force cold_ctx in
  let sys = make_sys mode image in
  ignore (D.System.run ~max_guest_insns:5_000 sys);
  let snap = D.System.snapshot sys in
  let pc = K.kernel_base in
  List.iter
    (fun target ->
      let cache = one_recipe_cache ~pc ~target in
      let what = Printf.sprintf "link target %d" target in
      let forged = Snapshot.create () in
      List.iter
        (fun name ->
          Snapshot.add forged name
            (if name = "cache" then cache else Snapshot.find snap name))
        (Snapshot.names snap);
      (match D.System.restore (make_sys mode image) forged with
      | () -> Alcotest.failf "snapshot with %s restored" what
      | exception Snapshot.Corrupt _ -> ());
      let forged =
        Depot.create ~compat:(Depot.compat depot) ~rules:(Depot.rules depot) ~cache
          ~health:(Depot.health depot)
      in
      let cache_error f =
        match f () with
        | _ -> Alcotest.failf "depot with %s accepted" what
        | exception Depot.Depot_error { section; _ } ->
          Alcotest.(check string) (what ^ " blames the cache") "cache" section
      in
      cache_error (fun () -> D.System.depot_check forged);
      cache_error (fun () -> D.System.depot_install (make_sys mode image) forged))
    [ 1; 7; -2 ]

(* ---- installed code equals captured code --------------------------- *)

(* The installer's oracle, over gcc and hmmer under every preset. A
   snapshot restore into a fresh machine must rebuild every live TB and
   region with the captured id, hotness, host program (the pin test's
   digest), chain links and translator meta, whether it installs the
   in-memory snapshot's code or re-translates the recipes its bytes
   hold. A depot wave must install, for every recipe, the program the
   capturing machine held for it; wave TB ids are the installing
   machine's own, so a region is compared by its members' PCs instead
   of their ids. Every entry's hotness follows the depot's hotness
   contract: a count below the threshold installs at 0. *)
let restored_view (sys : D.System.t) =
  let target = function Some (s : T.Tb.t) -> s.T.Tb.id | None -> -1 in
  let meta tb =
    match sys.D.System.rule_translator with
    | None -> ""
    | Some _ ->
      Digest.to_hex (Digest.string (Marshal.to_string tb.T.Tb.meta [ Marshal.No_sharing ]))
  in
  List.map
    (fun (tb : T.Tb.t) ->
      ( (tb.T.Tb.id, tb.T.Tb.hot),
        (Test_emitter.program_digest tb, meta tb),
        Array.to_list (Array.map target tb.T.Tb.links) ))
    (T.Tb.Cache.to_list sys.D.System.cache
    @ T.Tb.Cache.regions_list sys.D.System.cache)

let recipe_view (sys : D.System.t) =
  let plain = T.Tb.Cache.to_list sys.D.System.cache in
  let pc_of id = (List.find (fun (tb : T.Tb.t) -> tb.T.Tb.id = id) plain).T.Tb.guest_pc in
  List.map
    (fun (tb : T.Tb.t) ->
      ( (tb.T.Tb.guest_pc, tb.T.Tb.privileged, tb.T.Tb.mmu_on),
        Array.to_list (Array.map pc_of tb.T.Tb.region_ids),
        tb.T.Tb.hot,
        Test_emitter.program_digest { tb with T.Tb.region_ids = [||] } ))
    (plain @ T.Tb.Cache.regions_list sys.D.System.cache)
  |> List.sort compare

let test_installed_code_equals_captured () =
  List.iter
    (fun bench ->
      let spec = W.find bench in
      let iterations = max 1 (100_000 / W.insns_per_iteration spec) in
      let image =
        K.build ~timer_period:2_000 ~user_program:(W.generate spec ~iterations) ()
      in
      List.iter
        (fun (name, mode) ->
          let what = bench ^ "/" ^ name in
          let captured = make_sys mode image in
          (match (D.System.run ~max_guest_insns:40_000 captured).T.Engine.reason with
          | `Insn_limit -> ()
          | _ -> Alcotest.failf "%s: the capture run should stop at its budget" what);
          let snap = D.System.snapshot captured in
          let view = Alcotest.(list (triple (pair int int) (pair string string) (list int))) in
          List.iter
            (fun (from, snap) ->
              let restored = D.System.create mode in
              D.System.restore restored snap;
              Alcotest.check view
                (Printf.sprintf "%s: restore from %s rebuilds the captured cache" what from)
                (restored_view captured) (restored_view restored))
            [ ("memory", snap); ("bytes", Snapshot.of_string (Snapshot.to_string snap)) ];
          (* depot waves into a machine whose memory is the captured
             one: the first wave installs every recipe, and a miss
             after a flush reinstalls them all *)
          let depot = D.System.depot_capture captured in
          let warm = D.System.create mode in
          D.System.restore ~rebuild:false warm snap;
          let recipes = recipe_view captured in
          let contract h = if h >= T.Engine.hot_threshold then h else 0 in
          let view =
            Alcotest.(
              list
                (pair
                   (pair (pair (triple int bool bool) (list int)) int)
                   string))
          in
          let flat l = List.map (fun (k, pcs, hot, d) -> (((k, pcs), hot), d)) l in
          let expected = List.map (fun (k, pcs, hot, d) -> (((k, pcs), contract hot), d)) recipes in
          let installed = D.System.depot_install warm depot in
          Alcotest.(check int) (what ^ ": the first wave installs every recipe")
            (List.length recipes) installed;
          Alcotest.check view (what ^ ": the first wave installs the captured code")
            expected (flat (recipe_view warm));
          T.Tb.Cache.flush warm.D.System.cache;
          let rt = warm.D.System.rt in
          let privileged = T.Runtime.privileged rt
          and mmu_on = Repro_arm.Cpu.mmu_enabled rt.T.Runtime.cpu in
          let (pc, _, _), _, _, _ =
            List.find (fun ((_, p, m), _, _, _) -> p = privileged && m = mmu_on) recipes
          in
          Alcotest.(check bool) (what ^ ": the miss wave serves its PC") true
            (D.System.depot_hit warm ~pc <> None);
          Alcotest.check view (what ^ ": the miss wave installs the captured code")
            expected (flat (recipe_view warm)))
        D.System.modes)
    [ "gcc"; "hmmer" ]

(* ---- a warm boot forms no region a cold boot does not -------------- *)

(* The depot's hotness contract: an entry captured below the hotness
   threshold installs at 0, where a cold translation starts. hmmer,
   libquantum and h264ref form no region in a short cold run, but
   depots that kept their captured counts (16 to 31) let their TBs
   cross the threshold warm and fuse a dozen regions each; gcc forms
   its regions cold, so its depot holds them and a warm boot forms
   none. Every warm boot still reaches the reference interpreter's
   halt code and UART bytes. *)
let test_warm_boot_forms_no_region () =
  List.iter
    (fun bench ->
      let spec = W.find bench in
      let image =
        K.build ~timer_period:2_000
          ~user_program:(W.generate spec ~iterations:(max 1 (8_000 / W.insns_per_iteration spec)))
          ()
      in
      let reference =
        let r = T.Ref_machine.create () in
        K.load image (T.Ref_machine.load_image r);
        match T.Ref_machine.run r ~max_steps:10_000_000 with
        | T.Ref_machine.Halted code, _ ->
          (code, Repro_machine.Devices.Uart.output r.T.Ref_machine.bus.Repro_machine.Bus.uart)
        | _ -> Alcotest.failf "%s: the reference interpreter did not halt" bench
      in
      let cold = make_sys mode image in
      let res = D.System.run ~max_guest_insns:2_000_000 cold in
      Alcotest.(check (pair int string)) (bench ^ ": cold reaches the reference") reference
        (guest_outcome cold res);
      let depot = Depot.of_string (Depot.to_string (D.System.depot_capture cold)) in
      let warm = make_sys mode image in
      Alcotest.(check bool) (bench ^ ": the boot wave installs recipes") true
        (D.System.depot_install warm depot > 0);
      let res = D.System.run ~max_guest_insns:2_000_000 warm in
      Alcotest.(check (pair int string)) (bench ^ ": warm reaches the reference") reference
        (guest_outcome warm res);
      Alcotest.(check int) (bench ^ ": a warm boot forms no region") 0
        (D.System.stats warm).Repro_x86.Stats.regions_formed)
    [ "hmmer"; "libquantum"; "h264ref"; "gcc" ]

(* ---- the code codec round-trips every program ---------------------- *)

module X = Repro_x86.Insn
module Tbcodec = Repro_snapshot.Tbcodec

(* [tb] through its byte form and back, with the meta [sys]'s translator
   holds for it: the program digest (printed code, tags, exits,
   provenance, region ids), the code and tags themselves, the fault
   producers, the guest code and the other record fields come back
   equal, and the meta is the same value (compared as "installed code
   equals captured code" compares it). *)
let round_trip what (sys : D.System.t) (tb : T.Tb.t) =
  let meta = tb.T.Tb.meta in
  let b = Snapshot.Enc.create () in
  Tbcodec.enc_tb b tb;
  D.Translator_rule.encode_meta b meta;
  let d = Snapshot.Dec.of_string (Snapshot.Enc.contents b) in
  let back = { (Tbcodec.dec_tb d) with T.Tb.region_ids = tb.T.Tb.region_ids } in
  let meta_back =
    D.Translator_rule.decode_meta ~slots:(Array.length back.T.Tb.exits)
      ~guest:back.T.Tb.guest_insns d
      ~rule:
        (Option.map
           (fun rs id -> List.find_opt (fun (r : R.Rule.t) -> r.R.Rule.id = id) (R.Ruleset.rules rs))
           sys.D.System.ruleset)
  in
  Alcotest.(check bool) (what ^ ": every byte read") true (Snapshot.Dec.finished d);
  let marshal m = Digest.to_hex (Digest.string (Marshal.to_string m [ Marshal.No_sharing ])) in
  Alcotest.(check string) (what ^ ": meta") (marshal meta) (marshal meta_back);
  Alcotest.(check string) (what ^ ": program digest") (Test_emitter.program_digest tb)
    (Test_emitter.program_digest back);
  let fields (tb : T.Tb.t) =
    ( (tb.T.Tb.id, tb.T.Tb.guest_pc, tb.T.Tb.privileged, tb.T.Tb.mmu_on, tb.T.Tb.guest_len),
      (tb.T.Tb.prog.Repro_x86.Prog.code, tb.T.Tb.prog.Repro_x86.Prog.tags),
      (tb.T.Tb.fault_producers, tb.T.Tb.guest_insns, tb.T.Tb.injected) )
  in
  Alcotest.(check bool) (what ^ ": code, tags, fault producers, guest code, fields") true
    (fields back = fields tb)

(* Every constructor of the host instruction set, and every operand,
   memory and counter form, in one program. *)
let every_insn_form =
  let m ?base ?index ?(scale = 1) seg disp = { X.seg; base; index; scale; disp } in
  let mems =
    [
      m X.Env 8;
      m ~base:X.rbx X.Ram (-4);
      m ~base:X.rsi ~index:X.rcx ~scale:4 X.Tlb 12;
      m ~index:X.r15 ~scale:8 X.Ram 0x7fff_ffff;
    ]
  in
  let operands = [ X.Reg X.r15; X.Imm (-1); X.Imm 0xFFFF_FFFF ] @ List.map (fun m -> X.Mem m) mems in
  let ccs = X.[ E; NE; B; AE; S; NS; O; NO; A; BE; GE; L; G; LE ] in
  List.concat
    [
      [ X.Label 0; X.Label 1_000_000 ];
      List.concat_map
        (fun width -> List.map (fun dst -> X.Mov { width; dst; src = X.Imm 7 }) operands)
        [ X.W8; X.W16; X.W32 ];
      List.map (fun src -> X.Mov { width = X.W32; dst = X.Reg X.rax; src }) operands;
      List.concat_map
        (fun src ->
          [
            X.Movzx8 { dst = X.rcx; src };
            X.Movzx16 { dst = X.rdx; src };
            X.Movsx8 { dst = X.rbx; src };
            X.Movsx16 { dst = X.rsp; src };
            X.Imul { dst = X.rbp; src };
            X.Cmovcc { cc = X.LE; dst = X.r8; src };
            X.Neg src;
            X.Not src;
          ])
        operands;
      List.map (fun addr -> X.Lea { dst = X.rdi; addr }) mems;
      List.map
        (fun op -> X.Alu { op; dst = X.Mem (m X.Env 0); src = X.Reg X.r11 })
        X.[ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ];
      List.concat_map
        (fun op ->
          [
            X.Shift { op; dst = X.Reg X.rax; amount = X.Sh_imm 31 };
            X.Shift { op; dst = X.Mem (m X.Env 4); amount = X.Sh_cl };
          ])
        X.[ Shl; Shr; Sar; Ror ];
      List.concat_map (fun cc -> [ X.Setcc { cc; dst = X.r12 }; X.Jcc { cc; target = 1 } ]) ccs;
      [ X.Jmp 0; X.Savef X.r9; X.Loadf X.r10; X.Call_helper { id = 17 }; X.Exit { slot = 0 } ];
      List.map
        (fun c -> X.Count c)
        X.[ Cnt_guest_insn 0x1234_5678; Cnt_sync_op; Cnt_mmu_access; Cnt_irq_poll ];
      [ X.Exit { slot = 3 } ];
    ]

let test_codec_round_trip () =
  let code = Array.of_list every_insn_form in
  let tags = Array.mapi (fun i _ -> List.nth X.all_tags (i mod List.length X.all_tags)) code in
  let guest =
    Array.map
      (fun w -> Result.get_ok (Repro_arm.Encode.decode w))
      [| mov_r0 0; mov_r0 1; mov_r0 0xff |]
  in
  let synthetic =
    {
      T.Tb.id = 41;
      guest_pc = 0x8000;
      privileged = false;
      mmu_on = true;
      prog = Repro_x86.Prog.of_code ~code ~tags;
      exits = [| T.Tb.Direct 0x8010; T.Tb.Indirect; T.Tb.Direct 0xFFFF_FFFC; T.Tb.Irq_deliver |];
      links = [||];
      guest_insns = guest;
      guest_len = Array.length guest;
      fault_producers = [| (0x8008, [| 0x8000; 0x8004 |]) |];
      injected = `Livelock;
      prov = [| 1; 2; 3 |];
      hot = 0;
      region_ids = [||];
      meta = T.Tb.No_meta;
    }
  in
  round_trip "every instruction form" (D.System.create D.System.Qemu) synthetic;
  (* every program the pinned-code harness records *)
  List.iter
    (fun bench ->
      List.iter
        (fun (name, mode) ->
          let k = ref 0 in
          ignore
            (Test_emitter.emitted_code_digest bench mode ~on_program:(fun sys tb ->
                 incr k;
                 round_trip (Printf.sprintf "%s/%s program %d" bench name !k) sys tb)))
        D.System.modes)
    [ "gcc"; "hmmer" ]

(* ---- forged code sections fail typed ------------------------------- *)

(* Hand-built code sections, each damaged in one way a decoder must
   bound: a count, a constructor tag, an index, a rule id, the framing.
   Restoring one raises [Snapshot.Corrupt]; installing or checking one
   in a depot raises [Depot_error] against ["cache"]; nothing else
   escapes. *)
(* Numbers as the code codec writes them. *)
let nums l =
  let b = Snapshot.Enc.create () in
  List.iter (Snapshot.Enc.nat b) l;
  Snapshot.Enc.contents b

(* A glue-tagged instruction with constructor [ctor] and one field, 0:
   [Exit { slot = 0 }] for constructor 6. *)
let insn ctor = nums [ (ctor * 8) + 4; 0 ]

(* The tiny TB's bytes: a program of [code] ([n] its claimed length),
   one exit slot (indirect, -1 zigzagged to 1), the guest words
   [guest]. *)
let tb_bytes ?(code = [ insn 6 ]) ?n ?(guest = []) ~pc () =
  nums [ 1; pc; 1; 0; Option.value n ~default:(List.length code) ]
  ^ String.concat "" code
  ^ nums ([ 1; 1; List.length guest ] @ guest @ [ 1; 0; 0; 0 ])

(* A meta for a one-slot TB whose one chunk is its one guest
   instruction and which used rule [rule]. *)
let meta_bytes ~pc ~rule = nums [ 1; pc; 1; 0; 0; 1; 0; 0; 1; 0; 0; 0; 1; rule; 0; 0 ]

(* A cache entry: hotness 0, one link slot (zigzagged), [members], [meta]. *)
let entry ?(link = -1) ?(members = []) ?meta tb =
  let l = Snapshot.Enc.create () in
  Snapshot.Enc.int l link;
  tb ^ nums [ 0; 1 ] ^ Snapshot.Enc.contents l
  ^ nums ((List.length members :: members) @ [ (if meta = None then 0 else 1) ])
  ^ Option.value meta ~default:""

let section plain regions =
  nums [ List.length plain ] ^ String.concat "" plain ^ nums [ List.length regions ]
  ^ String.concat "" regions

let test_forged_code_sections () =
  let image, _, _, depot = Lazy.force cold_ctx in
  let sys = make_sys mode image in
  ignore (D.System.run ~max_guest_insns:5_000 sys);
  let snap = D.System.snapshot sys in
  let pc = K.kernel_base in
  let tb = tb_bytes ~pc () in
  let real_rule = (List.hd (R.Ruleset.rules (Option.get sys.D.System.ruleset))).R.Rule.id in
  let ruled = tb_bytes ~guest:[ mov_r0 0 ] ~pc () in
  let good = section [ entry ruled ~meta:(meta_bytes ~pc ~rule:real_rule) ] [] in
  let old_format =
    let b = Snapshot.Enc.create () in
    List.iter (Snapshot.Enc.int b) [ 1; 1; pc; 1; 0; -1; 0; 0; 0; 1; -1; 0 ];
    Snapshot.Enc.contents b (* one record in the recipe layout *)
  in
  let forgeries =
    [
      ("a negative entry count", String.make 8 '\xff' ^ "\x7f" ^ nums [ 0 ]);
      ("an oversized entry count", nums [ 1 lsl 40; 0 ]);
      ("a negative link count", section [ tb ^ nums [ 0 ] ^ String.make 8 '\xff' ^ "\x7f" ] []);
      ("an oversized program length", section [ entry (tb_bytes ~n:(1 lsl 40) ~pc ()) ] []);
      ("an unknown constructor tag", section [ entry (tb_bytes ~code:[ insn 31 ] ~pc ()) ] []);
      ("an out-of-range link", section [ entry ~link:2 tb ] []);
      ("an out-of-range region member", section [ entry tb ] [ entry ~members:[ 0; 5 ] tb ]);
      ("an unknown rule id", section [ entry ruled ~meta:(meta_bytes ~pc ~rule:99_999) ] []);
      ("trailing bytes", good ^ nums [ 0 ]);
      ("an old-format payload", old_format);
    ]
  in
  let with_cache cache =
    let forged = Snapshot.create () in
    List.iter
      (fun name ->
        Snapshot.add forged name (if name = "cache" then cache else Snapshot.find snap name))
      (Snapshot.names snap);
    forged
  in
  (* the hand-built layout is the real one: the undamaged section loads *)
  D.System.restore (make_sys mode image) (with_cache good);
  List.iter
    (fun (what, cache) ->
      (match D.System.restore (make_sys mode image) (with_cache cache) with
      | () -> Alcotest.failf "a snapshot with %s restored" what
      | exception Snapshot.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: restore raised %s" what (Printexc.to_string e));
      let forged =
        Depot.create ~compat:(Depot.compat depot) ~rules:(Depot.rules depot) ~cache
          ~health:(Depot.health depot)
      in
      let cache_error how f =
        match f () with
        | _ -> Alcotest.failf "%s: a depot with %s was accepted" how what
        | exception Depot.Depot_error { section; _ } ->
          Alcotest.(check string) (Printf.sprintf "%s: %s blames the cache" how what) "cache" section
        | exception e -> Alcotest.failf "%s: %s raised %s" how what (Printexc.to_string e)
      in
      cache_error "depot_check" (fun () -> D.System.depot_check forged);
      cache_error "depot_install" (fun () -> D.System.depot_install (make_sys mode image) forged))
    forgeries

let suite =
  [
    ( "aotcache",
      [
        Alcotest.test_case "depot container fuzz (flip + truncate)" `Quick
          test_container_fuzz;
        Alcotest.test_case "a flipped section is named by the container" `Quick
          test_section_blame;
        Alcotest.test_case "truncated + zero-length blob files" `Quick
          test_file_damage;
        Alcotest.test_case "crash-commit protocol" `Quick test_commit_protocol;
        Alcotest.test_case "injected depot faults are typed" `Quick
          test_injected_faults;
        Alcotest.test_case "warm boot identity, translate ~ 0" `Quick
          test_warm_boot_identity;
        Alcotest.test_case "install waves and restore record no statics" `Quick
          test_rebuilds_record_no_statics;
        Alcotest.test_case "cross-version/cross-ruleset rejection" `Quick
          test_compat_rejection;
        Alcotest.test_case "a depot with text rules boots cold" `Quick
          test_text_rules_depot;
        Alcotest.test_case "poisoned recipes stay quarantined" `Quick
          test_quarantine_honored;
        Alcotest.test_case "breaker rule write-back persists" `Quick
          test_rule_writeback;
        Alcotest.test_case "install waves are machine-neutral" `Quick
          test_wave_neutrality;
        Alcotest.test_case "format skew and altered code are refused" `Quick
          test_format_and_code_rejection;
        Alcotest.test_case "poison needs a depot-served TB" `Quick
          test_poison_needs_a_served_tb;
        Alcotest.test_case "link targets are validated at decode" `Quick
          test_link_targets_validated;
        Alcotest.test_case "installed code equals captured code" `Quick
          test_installed_code_equals_captured;
        Alcotest.test_case "a warm boot forms no region" `Quick
          test_warm_boot_forms_no_region;
        Alcotest.test_case "the code codec round-trips every program" `Quick
          test_codec_round_trip;
        Alcotest.test_case "forged code sections fail typed" `Quick
          test_forged_code_sections;
      ] );
  ]
