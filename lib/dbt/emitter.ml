open Repro_common
module A = Repro_arm.Insn
module Cond = Repro_arm.Cond
module X = Repro_x86.Insn
module Prog = Repro_x86.Prog
module Tb = Repro_tcg.Tb
module Envspec = Repro_tcg.Envspec
module Helpers = Repro_tcg.Helpers
module Backend = Repro_tcg.Backend
module Rule = Repro_rules.Rule
module Ruleset = Repro_rules.Ruleset
module Flagconv = Repro_rules.Flagconv
module Pinmap = Repro_rules.Pinmap
module Ledger = Repro_perfscope.Ledger
module Attr = Repro_covscope.Attr

(* Where the guest condition flags currently live. [F_env]: env is
   authoritative, EFLAGS holds nothing. [F_both conv]: both valid.
   [F_dirty conv]: EFLAGS authoritative, env stale — a Sync-save is
   owed before any QEMU involvement. *)
type fl_state = F_env | F_both of Flagconv.t | F_dirty of Flagconv.t

type exit_state = { conv_at_exit : Flagconv.t option; flags_save_in_epilogue : bool }

type result = {
  prog : Prog.t;
  exits : Tb.exit_kind array;
  exit_states : exit_state array;
  first_flag_is_def : bool;
  rule_covered : int;
  fallback : int;
  rules_used : (Rule.t * int) list;
  prov : int array;
  cov_sites : (int * int) list;
}

let canonical_bit = 0x2000_0000

(* ---------- coordination-savings provenance ----------

   Counterfactual cost table for the ledger: how many real host
   instructions each coordination primitive emits under each design.
   [Count] pseudos execute free ({!Repro_x86.Prog.is_pseudo}), so they
   are not counted; every save/restore carries exactly one sync op
   (its [Cnt_sync_op]) in both designs.  The numbers mirror
   [flags_save]/[flags_restore] below — the assertion-backed ledger
   tests catch drift. *)

let save_cost ~reduction conv =
  if reduction then
    match conv with
    | Flagconv.Sub_like | Flagconv.Canonical -> 3
    | Flagconv.Add_like -> 4
    | Flagconv.Logic_like -> 5
  else match conv with Flagconv.Logic_like -> 7 | _ -> 9

let restore_cost ~reduction = if reduction then 2 else 11

type chunk = { pc : Word32.t; insns : A.t array; origins : int array; hoists : int }

type st = {
  b : Prog.builder;
  opt : Opt.t;
  ruleset : Ruleset.t;
  privileged : bool;
  (* [tb_pc]/[insns]/[origins] are the current chunk's: [emit] rebinds
     them chunk by chunk over one shared builder. *)
  mutable tb_pc : Word32.t;
  mutable insns : A.t array;
  mutable origins : int array;  (* original (pre-scheduling) index of each insn *)
  mutable loaded : int;  (* guest-reg bitmask valid in pinned host regs *)
  mutable dirty : int;   (* guest-reg bitmask where host is newer than env *)
  mutable fl : fl_state;
  (* exit bookkeeping *)
  exits : Tb.exit_kind array;
  exit_states : exit_state array;
  mutable slots_used : int;
  exit_seen : bool array;
  elide : bool array;
  entry_conv : Flagconv.t option;
  (* irq check *)
  irq_label : int;
  mutable irq_resume_pc : Word32.t;   (* guest PC the irq stub publishes *)
  mutable irq_emitted : bool;
  mutable irq_sched_index : int;      (* insn index before which the check goes; -1 = head *)
  (* stats *)
  mutable rule_covered : int;
  mutable fallback : int;
  mutable rules_used : (Rule.t * int) list;
      (* distinct rules with the OR of their matched insns' guest
         def-masks — shadow verification attributes divergences by
         destination register *)
  prov : int array;  (* Ledger provenance accumulated during emission *)
  in_region : bool;  (* Region tier for coverage attribution *)
  mutable cov_sites : (int * int) list;  (* (rule id, emitted host insns) per site *)
}

(* Coverage tier of code this emitter translates natively: the rule
   tier in plain TBs, the region tier inside fused superblocks. *)
let native_tier st = if st.in_region then Attr.Region else Attr.Rule

let env_op slot = X.Mem (X.env_slot slot)
let emit st ?tag i = Prog.emit st.b ?tag i
let credit st pass ~ops ~insns = Ledger.prov_add st.prov pass ~ops ~insns

(* Guest PC of the instruction at (scheduled) index [idx]: scheduling
   permutes emission order but every instruction keeps its original
   address for branch targets and fault/emulation resume points. *)
let pc_at st idx = Word32.add st.tb_pc (4 * st.origins.(idx))

(* ---------- register residency ---------- *)

let host_of r = match Pinmap.pin r with Some h -> h | None -> assert false

let ensure_loaded st r =
  if Pinmap.is_pinned r && st.loaded land (1 lsl r) = 0 then begin
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = X.Reg (host_of r); src = env_op (Envspec.reg r) });
    st.loaded <- st.loaded lor (1 lsl r)
  end

let ensure_loaded_mask st mask =
  for r = 0 to 14 do
    if mask land (1 lsl r) <> 0 then ensure_loaded st r
  done

let mark_def st r =
  if Pinmap.is_pinned r then begin
    st.loaded <- st.loaded lor (1 lsl r);
    st.dirty <- st.dirty lor (1 lsl r)
  end

let store_dirty_regs st =
  for r = 0 to 14 do
    if st.dirty land (1 lsl r) <> 0 then
      emit st ~tag:X.Tag_sync
        (X.Mov { width = X.W32; dst = env_op (Envspec.reg r); src = X.Reg (host_of r) })
  done;
  st.dirty <- 0

(* Read a guest register into a specific host register (argument
   setup), regardless of pinning. *)
let read_reg_to st ~dst r =
  if Pinmap.is_pinned r && st.loaded land (1 lsl r) <> 0 then
    emit st (X.Mov { width = X.W32; dst = X.Reg dst; src = X.Reg (host_of r) })
  else emit st (X.Mov { width = X.W32; dst = X.Reg dst; src = env_op (Envspec.reg r) })

(* ---------- flag coordination ---------- *)

(* Sync-save: spill EFLAGS to env. With III-B reduction: 3-5 host
   instructions into the packed slot (+ tag). Without: the one-to-many
   parse into QEMU's four per-flag slots (~10, plus it is what makes
   the unoptimized design slower than QEMU). Flag-preserving unless a
   polarity/mask fix is needed; returns the fl state after. *)
let flags_save st conv =
  if st.opt.Opt.reduction then begin
    emit st ~tag:X.Tag_sync (X.Count X.Cnt_sync_op);
    emit st ~tag:X.Tag_sync (X.Savef X.rax);
    let clobbered =
      match conv with
      | Flagconv.Sub_like | Flagconv.Canonical -> false
      | Flagconv.Add_like ->
        emit st ~tag:X.Tag_sync
          (X.Alu { op = X.Xor; dst = X.Reg X.rax; src = X.Imm canonical_bit });
        true
      | Flagconv.Logic_like ->
        (* keep N/Z, force C=0 (canonical bit29 = ¬C = 1), V=0 *)
        emit st ~tag:X.Tag_sync
          (X.Alu { op = X.And; dst = X.Reg X.rax; src = X.Imm 0xC000_0000 });
        emit st ~tag:X.Tag_sync
          (X.Alu { op = X.Or; dst = X.Reg X.rax; src = X.Imm canonical_bit });
        true
    in
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = env_op Envspec.ccr_packed; src = X.Reg X.rax });
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = env_op Envspec.ccr_tag; src = X.Imm 1 });
    (* III-B: packed save vs the one-to-many parse (same 1 sync op) *)
    credit st Ledger.Reduction ~ops:0
      ~insns:(save_cost ~reduction:false conv - save_cost ~reduction:true conv);
    st.fl <- (if clobbered then F_env else F_both conv)
  end
  else begin
    (* Parsed (one-to-many) form: setcc per flag — flag-preserving. *)
    emit st ~tag:X.Tag_sync (X.Count X.Cnt_sync_op);
    let set cc slot =
      emit st ~tag:X.Tag_sync (X.Setcc { cc; dst = X.rax });
      emit st ~tag:X.Tag_sync
        (X.Mov { width = X.W32; dst = env_op slot; src = X.Reg X.rax })
    in
    let seti v slot =
      emit st ~tag:X.Tag_sync (X.Mov { width = X.W32; dst = env_op slot; src = X.Imm v })
    in
    set X.S Envspec.cc_n;
    set X.E Envspec.cc_z;
    (match conv with
    | Flagconv.Add_like -> set X.B Envspec.cc_c
    | Flagconv.Sub_like | Flagconv.Canonical -> set X.AE Envspec.cc_c
    | Flagconv.Logic_like -> seti 0 Envspec.cc_c);
    (match conv with
    | Flagconv.Logic_like -> seti 0 Envspec.cc_v
    | Flagconv.Add_like | Flagconv.Sub_like | Flagconv.Canonical -> set X.O Envspec.cc_v);
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = env_op Envspec.ccr_tag; src = X.Imm 0 });
    st.fl <- F_both conv
  end

(* Sync-restore: install the guest flags from env into EFLAGS in the
   Canonical convention. *)
let flags_restore st =
  emit st ~tag:X.Tag_sync (X.Count X.Cnt_sync_op);
  if st.opt.Opt.reduction then begin
    (* env invariant under reduction: the packed slot is always
       maintained (helpers keep both forms coherent). *)
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = X.Reg X.rax; src = env_op Envspec.ccr_packed });
    emit st ~tag:X.Tag_sync (X.Loadf X.rax);
    (* III-B: packed reload vs rebuilding from four parsed slots *)
    credit st Ledger.Reduction ~ops:0
      ~insns:(restore_cost ~reduction:false - restore_cost ~reduction:true)
  end
  else begin
    (* Rebuild from the parsed slots (the expensive direction of the
       one-to-many state). *)
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = X.Reg X.rax; src = env_op Envspec.cc_n });
    emit st ~tag:X.Tag_sync (X.Shift { op = X.Shl; dst = X.Reg X.rax; amount = X.Sh_imm 1 });
    emit st ~tag:X.Tag_sync
      (X.Alu { op = X.Or; dst = X.Reg X.rax; src = env_op Envspec.cc_z });
    emit st ~tag:X.Tag_sync (X.Shift { op = X.Shl; dst = X.Reg X.rax; amount = X.Sh_imm 1 });
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = X.Reg X.rdx; src = env_op Envspec.cc_c });
    emit st ~tag:X.Tag_sync
      (X.Alu { op = X.Xor; dst = X.Reg X.rdx; src = X.Imm 1 });
    emit st ~tag:X.Tag_sync
      (X.Alu { op = X.Or; dst = X.Reg X.rax; src = X.Reg X.rdx });
    emit st ~tag:X.Tag_sync (X.Shift { op = X.Shl; dst = X.Reg X.rax; amount = X.Sh_imm 1 });
    emit st ~tag:X.Tag_sync
      (X.Alu { op = X.Or; dst = X.Reg X.rax; src = env_op Envspec.cc_v });
    emit st ~tag:X.Tag_sync
      (X.Shift { op = X.Shl; dst = X.Reg X.rax; amount = X.Sh_imm 28 });
    emit st ~tag:X.Tag_sync (X.Loadf X.rax)
  end;
  st.fl <- F_both Flagconv.Canonical

(* Make sure EFLAGS holds the guest flags; returns the convention.
   Without III-C-1, a restore is emitted even when EFLAGS already has
   them (the naive per-conditional Sync-restore of Fig. 9). *)
let ensure_flags st =
  match st.fl with
  | F_env ->
    flags_restore st;
    Flagconv.Canonical
  | F_both conv ->
    if st.opt.Opt.elim_restores then begin
      (* III-C.1: EFLAGS already holds the guest flags — the naive
         design would re-restore here anyway *)
      credit st Ledger.Elim_restores ~ops:1
        ~insns:(restore_cost ~reduction:st.opt.Opt.reduction);
      conv
    end
    else begin
      flags_restore st;
      Flagconv.Canonical
    end
  | F_dirty conv -> conv

(* Invert the carry polarity of the flags live in EFLAGS, which are
   then in convention [conv]. *)
let flip_carry st conv =
  emit st ~tag:X.Tag_sync (X.Savef X.rax);
  emit st ~tag:X.Tag_sync
    (X.Alu { op = X.Xor; dst = X.Reg X.rax; src = X.Imm canonical_bit });
  emit st ~tag:X.Tag_sync (X.Loadf X.rax);
  match st.fl with
  | F_dirty _ -> st.fl <- F_dirty conv
  | F_both _ -> st.fl <- F_both conv
  | F_env -> assert false

(* Flip/install the carry polarity an adc/sbb template needs. *)
let ensure_carry st pol =
  let conv = ensure_flags st in
  let want_inverted = pol = `Inverted in
  if Flagconv.carry_inverted conv <> want_inverted then
    flip_carry st (if want_inverted then Flagconv.Canonical else Flagconv.Add_like)

(* Spill flags if env is stale (owed before any QEMU involvement and
   before EFLAGS-clobbering templates). *)
let spill_flags_if_dirty st =
  match st.fl with
  | F_dirty conv -> flags_save st conv
  | F_both conv ->
    (* Naive mode re-saves redundantly at every coordination point
       (the consecutive-memory pairs of Fig. 10). *)
    if not st.opt.Opt.elim_mem then flags_save st conv
    else
      credit st Ledger.Elim_mem ~ops:1
        ~insns:(save_cost ~reduction:st.opt.Opt.reduction conv)
  | F_env -> ()

(* Full Sync-save before a helper call or TB exit. *)
let sync_for_qemu st =
  spill_flags_if_dirty st;
  store_dirty_regs st

let invalidate_after_helper st =
  st.loaded <- 0;
  st.dirty <- 0;
  st.fl <- F_env

(* Without III-C-2 the naive design re-restores eagerly after every
   helper return (Sync-restore of Fig. 6): flags back into EFLAGS and
   every pinned register used later in the TB reloaded. *)
let eager_restore_after_helper st ~from_index =
  let remaining_uses = ref 0 in
  let reads_flags_later = ref false in
  for k = from_index to Array.length st.insns - 1 do
    remaining_uses := !remaining_uses lor A.uses st.insns.(k);
    if A.reads_flags st.insns.(k) then reads_flags_later := true
  done;
  if not st.opt.Opt.elim_mem then begin
    ensure_loaded_mask st (!remaining_uses land Pinmap.pinned_mask);
    if !reads_flags_later then flags_restore st
  end
  else begin
    (* III-C.2: the eager post-helper restore the naive design would
       emit — register reloads for every later use plus the flag
       rebuild — stays lazy instead. *)
    let reloads =
      A.popcount (!remaining_uses land Pinmap.pinned_mask land lnot st.loaded)
    in
    credit st Ledger.Elim_mem
      ~ops:(if !reads_flags_later then 1 else 0)
      ~insns:
        (reloads
        +
        if !reads_flags_later then restore_cost ~reduction:st.opt.Opt.reduction
        else 0)
  end

(* ---------- interrupt check ---------- *)

(* TB-head (or scheduled) interrupt poll. When the TB can be entered
   with live flags in EFLAGS (inter-TB optimization), the check
   preserves them around the cmp and the stub spills them (Fig. 7's
   rare-path parse). *)
let emit_irq_check st ~guard_flags =
  st.irq_emitted <- true;
  emit st ~tag:X.Tag_irq_check (X.Count X.Cnt_irq_poll);
  if guard_flags then
    emit st ~tag:X.Tag_irq_check (X.Savef X.rcx);
  emit st ~tag:X.Tag_irq_check
    (X.Alu { op = X.Cmp; dst = env_op Envspec.irq_pending; src = X.Imm 0 });
  emit st ~tag:X.Tag_irq_check (X.Jcc { cc = X.NE; target = st.irq_label });
  if guard_flags then
    emit st ~tag:X.Tag_irq_check (X.Loadf X.rcx)

let emit_irq_stub st =
  emit st (X.Label st.irq_label);
  (match st.entry_conv with
  | Some conv ->
    (* Flags arrived live in EFLAGS; the head check parked them in rcx.
       Spill them (canonicalized) so delivery sees the right CPSR. *)
    (match conv with
    | Flagconv.Sub_like | Flagconv.Canonical -> ()
    | Flagconv.Add_like ->
      emit st ~tag:X.Tag_sync
        (X.Alu { op = X.Xor; dst = X.Reg X.rcx; src = X.Imm canonical_bit })
    | Flagconv.Logic_like ->
      emit st ~tag:X.Tag_sync
        (X.Alu { op = X.And; dst = X.Reg X.rcx; src = X.Imm 0xC000_0000 });
      emit st ~tag:X.Tag_sync
        (X.Alu { op = X.Or; dst = X.Reg X.rcx; src = X.Imm canonical_bit }));
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = env_op Envspec.ccr_packed; src = X.Reg X.rcx });
    emit st ~tag:X.Tag_sync
      (X.Mov { width = X.W32; dst = env_op Envspec.ccr_tag; src = X.Imm 1 })
  | None -> ());
  emit st ~tag:X.Tag_irq_check
    (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm st.irq_resume_pc });
  emit st ~tag:X.Tag_irq_check (X.Exit { slot = Tb.slot_irq })

(* ---------- exits ---------- *)

let alloc_slot st kind =
  (* Dedupe direct targets; share one indirect slot. *)
  let rec find i =
    if i >= st.slots_used then None
    else if st.exits.(i) = kind then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some s -> s
  | None ->
    (* [Tb.slot_irq] stays reserved for the head interrupt check; it is
       a plain TB's last slot, and a region allocates around it. *)
    let s = if st.slots_used = Tb.slot_irq then Tb.slot_irq + 1 else st.slots_used in
    if s >= Array.length st.exits then raise Tb.Tb_too_complex;
    st.exits.(s) <- kind;
    st.slots_used <- s + 1;
    s

(* Epilogue + Exit. Record the exit-time flag situation for the
   inter-TB optimization; honour an elision decision for this slot. *)
let epilogue_exit st kind =
  let slot = alloc_slot st kind in
  let conv_now = match st.fl with F_env -> None | F_both c | F_dirty c -> Some c in
  let saved =
    match st.fl with
    | F_dirty conv ->
      if st.elide.(slot) then begin
        (* III-C.3: the chained successor redefines flags before use *)
        credit st Ledger.Inter_tb ~ops:1
          ~insns:(save_cost ~reduction:st.opt.Opt.reduction conv);
        false
      end
      else begin
        flags_save st conv;
        true
      end
    | F_both conv ->
      if (not st.opt.Opt.elim_mem) && not st.elide.(slot) then begin
        flags_save st conv;
        true
      end
      else begin
        (* skipped: III-C.2 if that pass is on (the save would be
           redundant regardless of linking), III-C.3 otherwise *)
        (if st.opt.Opt.elim_mem then
           credit st Ledger.Elim_mem ~ops:1
             ~insns:(save_cost ~reduction:st.opt.Opt.reduction conv)
         else
           credit st Ledger.Inter_tb ~ops:1
             ~insns:(save_cost ~reduction:st.opt.Opt.reduction conv));
        false
      end
    | F_env -> false
  in
  store_dirty_regs st;
  (match kind with
  | Tb.Direct target ->
    emit st ~tag:X.Tag_glue
      (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm target })
  | Tb.Indirect | Tb.Irq_deliver -> ());
  emit st ~tag:X.Tag_glue (X.Exit { slot });
  let conv_after = match st.fl with F_env -> None | F_both c | F_dirty c -> Some c in
  let record =
    { conv_at_exit = (if saved then conv_after else conv_now); flags_save_in_epilogue = saved }
  in
  (* Two textual exits can share one slot (deduped direct targets);
     inter-TB elision is only sound when both agree. *)
  if st.exit_seen.(slot) && st.exit_states.(slot) <> record then
    st.exit_states.(slot) <- { conv_at_exit = None; flags_save_in_epilogue = false }
  else st.exit_states.(slot) <- record;
  st.exit_seen.(slot) <- true

type snapshot = { s_loaded : int; s_dirty : int; s_fl : fl_state }

let save_alloc st = { s_loaded = st.loaded; s_dirty = st.dirty; s_fl = st.fl }

let restore_alloc st s =
  st.loaded <- s.s_loaded;
  st.dirty <- s.s_dirty;
  st.fl <- s.s_fl

(* ---------- helper-based bodies ---------- *)

let emit_helper_call st id =
  emit st ~tag:X.Tag_glue (X.Call_helper { id });
  invalidate_after_helper st

let set_env_pc st pc =
  emit st ~tag:X.Tag_glue
    (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Imm pc })

(* QEMU fallback for one instruction (system-level / uncovered):
   coordinate, call the emulation helper, lazily restore after. *)
let emit_fallback_body st ~pc ~index =
  st.fallback <- st.fallback + 1;
  (* This guest insn retires through the emulation helper: re-stamp
     its already-emitted retirement counter with the helper tier.
     Patching the single retirement site is drift-proof where
     mirroring the callers' dispatch logic would not be. *)
  Prog.repatch_last_retire st.b (fun attr -> Attr.retier attr Attr.Helper);
  sync_for_qemu st;
  set_env_pc st pc;
  emit st ~tag:X.Tag_sync (X.Count X.Cnt_sync_op);
  emit_helper_call st Helpers.h_interp_one;
  eager_restore_after_helper st ~from_index:(index + 1)

(* ---------- memory bodies ---------- *)

let shift_op : A.shift_kind -> X.shift_op = function
  | A.LSL -> X.Shl
  | A.LSR -> X.Shr
  | A.ASR -> X.Sar
  | A.ROR -> X.Ror

(* Add a (possibly shifted-register) offset to [dst]. [read] fetches
   source registers — callers pick host-or-env or env-only reads. *)
let apply_offset st ~dst ~read (off : A.mem_offset) =
  match off with
  | A.Imm_off 0 -> ()
  | A.Imm_off n ->
    emit st ~tag:X.Tag_mmu
      (X.Alu { op = X.Add; dst = X.Reg dst; src = X.Imm (Word32.of_signed n) })
  | A.Reg_off { rm; kind; amount; subtract } ->
    read ~dst:X.rax rm;
    if amount <> 0 then
      emit st ~tag:X.Tag_mmu
        (X.Shift { op = shift_op kind; dst = X.Reg X.rax; amount = X.Sh_imm amount });
    emit st ~tag:X.Tag_mmu
      (X.Alu
         { op = (if subtract then X.Sub else X.Add); dst = X.Reg dst; src = X.Reg X.rax })

(* Compute a guest effective address into the first argument register:
   base plus offset (or just the base for post-indexing). *)
let compute_address ?(base_only = false) st rn (off : A.mem_offset) =
  read_reg_to st ~dst:Helpers.arg0_reg rn;
  if not base_only then apply_offset st ~dst:Helpers.arg0_reg ~read:(read_reg_to st) off

(* Base-register writeback, emitted after the helper returned (so a
   data abort leaves the base unchanged, matching the architecture).
   Works entirely on env — host registers are post-call poison. *)
let emit_writeback st rn (off : A.mem_offset) =
  emit st ~tag:X.Tag_mmu
    (X.Mov { width = X.W32; dst = X.Reg X.rax; src = env_op (Envspec.reg rn) });
  (match off with
  | A.Imm_off n ->
    if n <> 0 then
      emit st ~tag:X.Tag_mmu
        (X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm (Word32.of_signed n) })
  | A.Reg_off { rm; kind; amount; subtract } ->
    emit st ~tag:X.Tag_mmu
      (X.Mov { width = X.W32; dst = X.Reg X.rcx; src = env_op (Envspec.reg rm) });
    if amount <> 0 then
      emit st ~tag:X.Tag_mmu
        (X.Shift { op = shift_op kind; dst = X.Reg X.rcx; amount = X.Sh_imm amount });
    emit st ~tag:X.Tag_mmu
      (X.Alu
         { op = (if subtract then X.Sub else X.Add); dst = X.Reg X.rax; src = X.Reg X.rcx }));
  emit st ~tag:X.Tag_mmu
    (X.Mov { width = X.W32; dst = env_op (Envspec.reg rn); src = X.Reg X.rax })

(* The address-setup instructions above run after sync, so they may
   only read pinned-host or env state — both valid. *)

let maybe_scheduled_irq_check st ~index =
  if st.irq_sched_index = index && not st.irq_emitted then begin
    (* State is synced (caller just ran sync_for_qemu): publish the
       resume PC of this instruction; the cmp clobbers EFLAGS, which
       the tracker accounts for. *)
    st.irq_resume_pc <- pc_at st index;
    emit_irq_check st ~guard_flags:false;
    match st.fl with
    | F_both _ -> st.fl <- F_env
    | F_env -> ()
    | F_dirty _ -> assert false (* sync ran just before *)
  end

(* Extension (Opt.inline_mmu, the paper's future work): an inline TLB
   fast path for offset-form ldr/str in rule-translated code. The
   probe uses only the scratch registers (rax/rcx and the address in
   rdx), clobbers EFLAGS (flags are spilled first) and, on a miss,
   falls into a slow path that performs the full coordination the
   helper requires and reloads every live pinned register before
   rejoining — so the fast path keeps all pinned state live. *)
let emit_mem_inline st ~pc (insn : A.t) =
  let width, rd, rn, off, is_load =
    match insn.A.op with
    | A.Ldr { width; rd; rn; off; index = A.Offset } -> (width, rd, rn, off, true)
    | A.Str { width; rd; rn; off; index = A.Offset } -> (width, rd, rn, off, false)
    | _ -> assert false
  in
  ensure_loaded_mask st ((A.uses insn lor A.defs insn) land Pinmap.pinned_mask);
  spill_flags_if_dirty st;
  emit st ~tag:X.Tag_mmu (X.Count X.Cnt_mmu_access);
  compute_address st rn off;  (* address in rdx; uses rax as scratch *)
  let t = X.Tag_mmu in
  let slow = Prog.fresh_label st.b in
  let done_ = Prog.fresh_label st.b in
  let ram =
    Backend.tlb_probe st.b ~addr:Helpers.arg0_reg ~set:X.rax ~pa:X.rcx ~tmp:X.rax
      ~bank:(4 * Repro_mmu.Mmu.Tlb.bank_offset_words ~privileged:st.privileged)
      ~write:(not is_load) ~slow
  in
  (if is_load then begin
     let dst = if Pinmap.is_pinned rd then host_of rd else X.rax in
     emit st ~tag:t (Backend.ram_load width ~dst ram);
     if dst = X.rax then
       emit st ~tag:t (X.Mov { width = X.W32; dst = env_op (Envspec.reg rd); src = X.Reg X.rax })
   end
   else begin
     (* store: value from its pinned home or env via rax *)
     let src =
       if Pinmap.is_pinned rd && st.loaded land (1 lsl rd) <> 0 then host_of rd
       else begin
         emit st ~tag:t
           (X.Mov { width = X.W32; dst = X.Reg X.rax; src = env_op (Envspec.reg rd) });
         X.rax
       end
     in
     emit st ~tag:t (Backend.ram_store width ram ~src)
   end);
  emit st ~tag:t (X.Jmp done_);
  (* slow path: full coordination, helper, reload of live state *)
  emit st (X.Label slow);
  let dirty_snapshot = st.dirty in
  for r = 0 to 14 do
    if dirty_snapshot land (1 lsl r) <> 0 then
      emit st ~tag:X.Tag_sync
        (X.Mov { width = X.W32; dst = env_op (Envspec.reg r); src = X.Reg (host_of r) })
  done;
  set_env_pc st pc;
  let home = if Pinmap.is_pinned rd then X.Reg (host_of rd) else env_op (Envspec.reg rd) in
  if not is_load then
    emit st ~tag:t (X.Mov { width = X.W32; dst = X.Reg Helpers.arg1_reg; src = home });
  emit st ~tag:t (X.Call_helper { id = Helpers.mmu_helper ~store:(not is_load) width });
  if is_load then emit st ~tag:t (X.Mov { width = X.W32; dst = home; src = X.Reg X.rax });
  (* reload everything the fast path kept live *)
  for r = 0 to 14 do
    if st.loaded land (1 lsl r) <> 0 && not (is_load && r = rd) then
      emit st ~tag:X.Tag_sync
        (X.Mov { width = X.W32; dst = X.Reg (host_of r); src = env_op (Envspec.reg r) })
  done;
  emit st (X.Label done_);
  (* join: fast-path state (slow path reconstructed it) *)
  if Pinmap.is_pinned rd && is_load then mark_def st rd;
  (match st.fl with F_both _ | F_dirty _ -> st.fl <- F_env | F_env -> ())

(* LDM/STM: one word helper call per listed register, ascending, its
   address taken from the base in env; a load's result goes to env, a
   store's value comes from env. *)
let emit_block_transfer st ~pc ~index ~load ~kind ~rn ~writeback regs =
  sync_for_qemu st;
  maybe_scheduled_irq_check st ~index;
  set_env_pc st pc;
  let t = X.Tag_mmu in
  let count = A.popcount regs in
  let start = match kind with A.IA -> 0 | A.DB -> -4 * count in
  let k = ref 0 in
  for r = 0 to 15 do
    if regs land (1 lsl r) <> 0 then begin
      if !k > 0 then invalidate_after_helper st;
      emit st ~tag:t
        (X.Mov { width = X.W32; dst = X.Reg Helpers.arg0_reg; src = env_op (Envspec.reg rn) });
      let off = start + (4 * !k) in
      if off <> 0 then
        emit st ~tag:t
          (X.Alu { op = X.Add; dst = X.Reg Helpers.arg0_reg; src = X.Imm (Word32.of_signed off) });
      if not load then
        emit st ~tag:t
          (X.Mov { width = X.W32; dst = X.Reg Helpers.arg1_reg; src = env_op (Envspec.reg r) });
      emit st ~tag:t (X.Count X.Cnt_mmu_access);
      emit st ~tag:t (X.Call_helper { id = Helpers.mmu_helper ~store:(not load) A.Word });
      if load then
        emit st ~tag:t (X.Mov { width = X.W32; dst = env_op (Envspec.reg r); src = X.Reg X.rax });
      incr k
    end
  done;
  invalidate_after_helper st;
  if writeback then begin
    emit st ~tag:t (X.Mov { width = X.W32; dst = X.Reg X.rax; src = env_op (Envspec.reg rn) });
    let delta = 4 * count * (match kind with A.IA -> 1 | A.DB -> -1) in
    emit st ~tag:t
      (X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm (Word32.of_signed delta) });
    emit st ~tag:t (X.Mov { width = X.W32; dst = env_op (Envspec.reg rn); src = X.Reg X.rax })
  end;
  eager_restore_after_helper st ~from_index:(index + 1)

(* Offset-form ldr/str through the QEMU softMMU helper, with
   coordination (the paper: the learning-based approach context
   switches to QEMU for address translation). *)
let rec emit_mem_body st ~pc ~index (insn : A.t) =
  match insn.A.op with
  | (A.Ldr { index = A.Offset; rd; _ } | A.Str { index = A.Offset; rd; _ })
    when st.opt.Opt.inline_mmu && rd <> 15 ->
    emit_mem_inline st ~pc insn
  | _ -> emit_mem_helper st ~pc ~index insn

and emit_mem_helper st ~pc ~index (insn : A.t) =
  (* One single-register access: sync, address, helper call, then
     [result] moves the loaded value (rax) home before any writeback. *)
  let single ~rn ~off ~idx_mode ~helper ?value result =
    sync_for_qemu st;
    maybe_scheduled_irq_check st ~index;
    emit st ~tag:X.Tag_mmu (X.Count X.Cnt_mmu_access);
    compute_address ~base_only:(idx_mode = A.Post_indexed) st rn off;
    Option.iter (read_reg_to st ~dst:Helpers.arg1_reg) value;
    set_env_pc st pc;
    emit st ~tag:X.Tag_mmu (X.Call_helper { id = helper });
    invalidate_after_helper st;
    result ();
    (match idx_mode with
    | A.Offset -> ()
    | A.Pre_indexed | A.Post_indexed -> emit_writeback st rn off);
    eager_restore_after_helper st ~from_index:(index + 1)
  in
  (* The loaded value (rax) into guest [rd], through [extend] (a sign
     extension into a given register) when given. *)
  let load_into rd extend () =
    if Pinmap.is_pinned rd then begin
      emit st ~tag:X.Tag_mmu
        (match extend with
        | Some f -> f (host_of rd)
        | None -> X.Mov { width = X.W32; dst = X.Reg (host_of rd); src = X.Reg X.rax });
      mark_def st rd
    end
    else begin
      Option.iter (fun f -> emit st ~tag:X.Tag_mmu (f X.rax)) extend;
      emit st ~tag:X.Tag_mmu
        (X.Mov { width = X.W32; dst = env_op (Envspec.reg rd); src = X.Reg X.rax })
    end
  in
  match insn.A.op with
  (* rd ≠ rn for the indexed forms: the result lands before the
     writeback, which re-reads the base *)
  | A.Ldr { width; rd; rn; off; index = idx_mode }
    when not (idx_mode <> A.Offset && rd = rn) ->
    single ~rn ~off ~idx_mode ~helper:(Helpers.mmu_helper ~store:false width) (load_into rd None)
  | A.Ldrs { half; rd; rn; off; index = idx_mode }
    when not (idx_mode <> A.Offset && rd = rn) ->
    (* the helper zero-extends; sign-extend host-side (movsx leaves
       EFLAGS alone, so no flag bookkeeping is owed) *)
    single ~rn ~off ~idx_mode
      ~helper:(Helpers.mmu_helper ~store:false (if half then A.Half else A.Byte))
      (load_into rd
         (Some
            (fun dst ->
              if half then X.Movsx16 { dst; src = X.Reg X.rax }
              else X.Movsx8 { dst; src = X.Reg X.rax })))
  | A.Str { width; rd; rn; off; index = idx_mode } ->
    single ~rn ~off ~idx_mode ~helper:(Helpers.mmu_helper ~store:true width) ~value:rd
      ignore
  | A.Ldm { kind; rn; writeback; regs } when regs land (1 lsl rn) = 0 ->
    emit_block_transfer st ~pc ~index ~load:true ~kind ~rn ~writeback regs
  | A.Stm { kind; rn; writeback; regs } ->
    emit_block_transfer st ~pc ~index ~load:false ~kind ~rn ~writeback regs
  | _ ->
    (* Pre/post-indexed forms and ldm-with-base-in-list fall back. *)
    emit_fallback_body st ~pc ~index

(* ---------- rule bodies ---------- *)

let emit_rule_body st (rule : Rule.t) binding insns_matched =
  let cov_before = Prog.length st.b in
  st.rule_covered <- st.rule_covered + List.length insns_matched;
  (let dmask = List.fold_left (fun m i -> m lor A.defs i) 0 insns_matched in
   st.rules_used <-
     (match List.assq_opt rule st.rules_used with
     | Some m0 -> (rule, m0 lor dmask) :: List.remove_assq rule st.rules_used
     | None -> (rule, dmask) :: st.rules_used));
  (* operand/def preloading happened at the caller (before any guard).
     Old flags need spilling only when the template clobbers EFLAGS
     without redefining the guest flags (otherwise they are dead). *)
  if rule.Rule.flags.Rule.host_clobbers && not rule.Rule.flags.Rule.guest_writes then
    spill_flags_if_dirty st;
  (match rule.Rule.carry_in with Some pol -> ensure_carry st pol | None -> ());
  (match
     Rule.instantiate rule binding ~pin_of_guest_reg:Pinmap.pin ~scratch:Pinmap.scratch
   with
  | Some host_insns -> List.iter (fun i -> emit st ~tag:X.Tag_compute i) host_insns
  | None -> assert false (* pinning was pre-checked *));
  List.iter (fun (i : A.t) ->
    let d = A.defs i in
    for r = 0 to 14 do
      if d land (1 lsl r) <> 0 then mark_def st r
    done)
    insns_matched;
  if rule.Rule.flags.Rule.guest_writes then begin
    (* Coordination is trigger-driven even in the basic design
       (paper Fig. 6): the spill happens at the next QEMU crossing,
       not here. *)
    match Rule.convention_after rule binding with
    | Some conv -> st.fl <- F_dirty conv
    | None -> assert false
  end
  else if rule.Rule.flags.Rule.host_clobbers then begin
    match st.fl with
    | F_both _ | F_dirty _ -> st.fl <- F_env (* env was made valid above *)
    | F_env -> ()
  end;
  st.cov_sites <- (rule.Rule.id, Prog.length st.b - cov_before) :: st.cov_sites

(* ---------- categories ---------- *)

type category =
  | C_rule of Rule.t * Rule.binding * A.t list  (* matched insns *)
  | C_memory
  | C_ender
  | C_fallback

let is_ender (i : A.t) =
  A.is_branch i
  ||
  match i.A.op with
  | A.Svc _ | A.Udf _ | A.Cps _ | A.Mcr _ | A.Msr { write_control = true; _ } -> true
  | _ -> false

let categorize st idx =
  let insn = st.insns.(idx) in
  if is_ender insn then C_ender
  else if A.is_memory_access insn then C_memory
  else
    (* Rule lookup over the unconditional tail starting here. A
       multi-instruction rule only applies to a run of AL insns. *)
    let try_match insns_list =
      match Ruleset.match_at st.ruleset insns_list with
      | Some (rule, binding) ->
        let len = Rule.guest_pattern_length rule in
        let matched = List.filteri (fun i _ -> i < len) insns_list in
        let conds_ok =
          match matched with
          | [ _ ] -> true
          | _ -> List.for_all (fun (i : A.t) -> i.A.cond = Cond.AL) matched
        in
        let all_pinned =
          Array.for_all (fun r -> r = -1 || Pinmap.is_pinned r) binding.Rule.regs
        in
        if conds_ok && all_pinned then Some (C_rule (rule, binding, matched)) else None
      | None -> None
    in
    let rest = Array.to_list (Array.sub st.insns idx (Array.length st.insns - idx)) in
    match try_match rest with
    | Some c -> c
    | None -> (
      (* A longer match may have failed its condition/pinning checks;
         retry restricted to a single instruction. *)
      match rest with
      | first :: _ :: _ -> (
        match try_match [ first ] with Some c -> c | None -> C_fallback)
      | _ -> C_fallback)

(* ---------- conditional guards ---------- *)

(* Put the guest flags in EFLAGS and pick the host condition code that
   tests [cond] there. Where the live convention has no single host cc
   for [cond], canonicalize EFLAGS first — so the answer is never
   [Needs_materialize]. *)
let resolve_cond st (cond : Cond.t) =
  if cond = Cond.AL then `Always
  else
    let conv = ensure_flags st in
    let conv =
      if Flagconv.eval conv cond <> Flagconv.Needs_materialize then conv
      else begin
        flip_carry st Flagconv.Canonical;
        Flagconv.Canonical
      end
    in
    match Flagconv.eval conv cond with
    | Flagconv.Always -> `Always
    | Flagconv.Never -> `Never
    | Flagconv.Cc cc -> `Cc cc
    | Flagconv.Needs_materialize -> assert false (* Canonical tests every condition *)

(* Branch over [cold] when [cc] holds. [cold] must leave the block (it
   ends in an exit); the code after the branch resumes from the state
   the branch saw. *)
let side_exit st cc cold =
  let cont = Prog.fresh_label st.b in
  let snap = save_alloc st in
  emit st ~tag:X.Tag_compute (X.Jcc { cc; target = cont });
  cold ();
  restore_alloc st snap;
  emit st (X.Label cont)

type guard = G_none | G_never | G_skip of int * snapshot

(* Open a guard for condition [cond]; the caller must later close it
   with [close_guard]. Register state needed inside the body must be
   preloaded by the caller BEFORE calling this. *)
let open_guard st (cond : Cond.t) =
  match resolve_cond st cond with
  | `Always -> G_none
  | `Never -> G_never
  | `Cc cc ->
    let skip = Prog.fresh_label st.b in
    let snap = save_alloc st in
    emit st ~tag:X.Tag_compute (X.Jcc { cc = X.cc_negate cc; target = skip });
    G_skip (skip, snap)

(* Join after a guarded body: conservative meet of the taken state and
   the pre-guard snapshot. *)
let close_guard st = function
  | G_none | G_never -> ()
  | G_skip (skip, snap) ->
    emit st (X.Label skip);
    let taken_loaded = st.loaded and taken_dirty = st.dirty and taken_fl = st.fl in
    st.loaded <- taken_loaded land snap.s_loaded;
    st.dirty <- taken_dirty lor snap.s_dirty;
    (* dirty regs must be loaded on both paths: enforced by the
       caller's preloading of defs before open_guard. *)
    assert (st.dirty land lnot st.loaded = 0);
    st.fl <-
      (match (taken_fl, snap.s_fl) with
      | F_both a, F_both b when a = b -> F_both a
      | F_dirty a, F_dirty b when a = b -> F_dirty a
      | F_env, F_env -> F_env
      | _ -> F_env)
    (* The F_env fallback requires env validity on both paths; bodies
       that leave flags dirty on the taken path must save before the
       join (see emit_insn's conditional flag-writer handling). *)

(* ---------- one guest instruction ---------- *)

let pinned_defs_uses insns_matched =
  List.fold_left
    (fun acc (i : A.t) -> acc lor A.uses i lor A.defs i)
    0 insns_matched
  land Pinmap.pinned_mask

(* Emit a (possibly conditional) non-ender instruction at [idx];
   returns the number of guest insns consumed. *)
let emit_insn st idx =
  let insn = st.insns.(idx) in
  let pc = pc_at st idx in
  (* [categorize] is pure, so the attribution can be computed before
     the retirement counter is placed — the counter's position (before
     the body, so faulting instructions still retire) must not move. *)
  let cat = categorize st idx in
  (match cat with
  | C_ender -> ()
  | C_rule (rule, _, _) ->
    emit st (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:(native_tier st) ~rule:rule.Rule.id insn)))
  | C_memory ->
    emit st (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:(native_tier st) insn)))
  | C_fallback ->
    emit st (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:Attr.Helper insn))));
  match cat with
  | C_ender -> assert false
  | C_rule (rule, binding, matched) ->
    ensure_loaded_mask st (pinned_defs_uses matched);
    (* Conditional bodies that touch EFLAGS must leave env valid
       before the guard: the body's own spill would only run on the
       taken path, leaving stale env flags on the skip path. *)
    let writes = rule.Rule.flags.Rule.guest_writes in
    if insn.A.cond <> Cond.AL && (writes || rule.Rule.flags.Rule.host_clobbers) then
      spill_flags_if_dirty st;
    let g = open_guard st insn.A.cond in
    let count_member i (m : A.t) =
      if i > 0 then
        emit st
          (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:(native_tier st) ~rule:rule.Rule.id m)))
    in
    (match g with
    | G_never -> List.iteri count_member matched
    | G_none | G_skip _ ->
      List.iteri count_member matched;
      emit_rule_body st rule binding matched;
      (match g with
      | G_skip _ when writes -> (
        match st.fl with
        | F_dirty conv -> flags_save st conv
        | F_both _ | F_env -> ())
      | _ -> ()));
    close_guard st g;
    List.length matched
  | C_memory ->
    let cond = insn.A.cond in
    if cond <> Cond.AL then begin
      (* env must be fully valid before the guard so the join is
         consistent whichever path ran. *)
      ensure_loaded_mask st ((A.uses insn lor A.defs insn) land Pinmap.pinned_mask);
      spill_flags_if_dirty st;
      store_dirty_regs st
    end;
    let g = open_guard st cond in
    (match g with
    | G_never -> ()
    | G_none | G_skip _ -> emit_mem_body st ~pc ~index:idx insn);
    (match g with
    | G_skip (_, _) ->
      (* Taken path ended with env authoritative; make the join state
         reflect that conservatively. *)
      close_guard st g
    | G_none | G_never -> close_guard st g);
    1
  | C_fallback ->
    let cond = insn.A.cond in
    if cond <> Cond.AL then begin
      ensure_loaded_mask st ((A.uses insn lor A.defs insn) land Pinmap.pinned_mask);
      spill_flags_if_dirty st;
      store_dirty_regs st
    end;
    let g = open_guard st cond in
    (match g with
    | G_never -> ()
    | G_none | G_skip _ -> emit_fallback_body st ~pc ~index:idx);
    close_guard st g;
    1

(* ---------- enders ---------- *)

(* Ledger credit for one removed chunk seam: what the boundary would
   have cost in separate TBs given the abstract state flowing across
   it — the epilogue flag save (if flags are dirty), the dirty-register
   spills, the pc-publish/Exit glue pair, and the successor's own head
   interrupt check (cmp + Jcc). *)
let seam_credit st =
  let save =
    match st.fl with
    | F_dirty conv -> save_cost ~reduction:st.opt.Opt.reduction conv
    | F_both _ | F_env -> 0
  in
  credit st Ledger.Region
    ~ops:(if save > 0 then 1 else 0)
    ~insns:(save + A.popcount st.dirty + 2 + 2)

(* Leave the current chunk for guest [pc]: through an epilogue exit
   from the last chunk ([next = None]), otherwise by falling into the
   next chunk, which must start at [pc] — else the trace is unfusable. *)
let leave_chunk st ~next pc =
  match next with
  | None -> epilogue_exit st (Tb.Direct pc)
  | Some next_pc ->
    if next_pc <> pc then raise Tb.Tb_too_complex;
    seam_credit st

let emit_ender st idx ~next =
  let insn = st.insns.(idx) in
  let pc = pc_at st idx in
  let next_pc = Word32.add pc 4 in
  (* An interior chunk can only end in a B: both of its directions are
     direct, so either can fall into the next chunk. *)
  (match (insn.A.op, next) with
  | A.B _, _ | _, None -> ()
  | _, Some _ -> raise Tb.Tb_too_complex);
  (* Native control transfers retire in the emitter's own tier; the
     emulated enders are helper-assisted. Paths that bail out to the
     interp helper mid-arm re-stamp via [emit_fallback_body]. *)
  let ender_tier =
    match insn.A.op with
    | A.B _ | A.Bx _ | A.Ldr { rd = 15; _ } | A.Ldm _ -> native_tier st
    | _ -> Attr.Helper
  in
  emit st (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:ender_tier insn)));
  (* Conditional branch shape: the hot direction (taken, unless
     [fall_hot]) ends the chunk through [leave_chunk], the other as a
     side exit off it. [taken ~hot] emits the taken direction as the
     one or the other. *)
  let dual_exit ~fall_hot taken =
    match resolve_cond st insn.A.cond with
    | `Always -> taken ~hot:true
    | `Never -> leave_chunk st ~next next_pc
    | `Cc cc when fall_hot ->
      side_exit st (X.cc_negate cc) (fun () -> taken ~hot:false);
      leave_chunk st ~next next_pc
    | `Cc cc ->
      side_exit st cc (fun () -> epilogue_exit st (Tb.Direct next_pc));
      taken ~hot:true
  in
  match insn.A.op with
  | A.B { link; offset } ->
    let target = Word32.add pc (Word32.of_signed ((offset * 4) + 8)) in
    (* both directions must agree on the loaded set: preload lr before
       the condition splits *)
    if link && insn.A.cond <> Cond.AL then ensure_loaded st 14;
    (* inside a region, the direction the next chunk continues is hot *)
    let fall_hot = match next with Some p -> p <> target | None -> false in
    dual_exit ~fall_hot (fun ~hot ->
        if link then begin
          ensure_loaded st 14;
          emit st ~tag:X.Tag_compute
            (X.Mov
               { width = X.W32; dst = X.Reg (host_of 14); src = X.Imm (Word32.add pc 4) });
          mark_def st 14
        end;
        if hot then leave_chunk st ~next target else epilogue_exit st (Tb.Direct target))
  | A.Bx rm ->
    if insn.A.cond <> Cond.AL then ensure_loaded_mask st ((1 lsl rm) land Pinmap.pinned_mask);
    dual_exit ~fall_hot:false (fun ~hot:_ ->
        (* Compute target after the epilogue's stores so rax is free:
           sync first, then publish env.pc. *)
        spill_flags_if_dirty st;
        store_dirty_regs st;
        read_reg_to st ~dst:X.rax rm;
        emit st ~tag:X.Tag_glue
          (X.Alu { op = X.And; dst = X.Reg X.rax; src = X.Imm 0xFFFF_FFFC });
        emit st ~tag:X.Tag_glue
          (X.Mov { width = X.W32; dst = env_op Envspec.pc; src = X.Reg X.rax });
        epilogue_exit st Tb.Indirect)
  | A.Ldr { rd = 15; _ } | A.Ldm _ ->
    (* PC-loading memory op: memory body publishes env.pc slot 15. *)
    dual_exit ~fall_hot:false (fun ~hot:_ ->
        emit_mem_body st ~pc ~index:idx insn;
        epilogue_exit st Tb.Indirect)
  | A.Dp { rd = 15; _ } ->
    dual_exit ~fall_hot:false (fun ~hot:_ ->
        st.fallback <- st.fallback + 1;
        sync_for_qemu st;
        set_env_pc st pc;
        emit st ~tag:X.Tag_sync (X.Count X.Cnt_sync_op);
        emit_helper_call st Helpers.h_interp_one;
        epilogue_exit st Tb.Indirect)
  | A.Svc _ | A.Udf _ | A.Cps _ | A.Mcr _ | A.Msr _ | A.Str { rd = 15; _ } ->
    (* Emulate; svc/udf stop inside the helper, the others resume at
       the next instruction. Conditional forms need env fully valid
       before the guard so the join state is consistent. *)
    if insn.A.cond <> Cond.AL then begin
      ensure_loaded_mask st ((A.uses insn lor A.defs insn) land Pinmap.pinned_mask);
      spill_flags_if_dirty st;
      store_dirty_regs st
    end;
    let g = open_guard st insn.A.cond in
    (match g with
    | G_never -> ()
    | G_none | G_skip _ -> emit_fallback_body st ~pc ~index:idx);
    close_guard st g;
    epilogue_exit st (Tb.Direct next_pc)
  | _ ->
    (* Any other PC-writing oddity: emulate then indirect. *)
    dual_exit ~fall_hot:false (fun ~hot:_ ->
        st.fallback <- st.fallback + 1;
        sync_for_qemu st;
        set_env_pc st pc;
        emit_helper_call st Helpers.h_interp_one;
        epilogue_exit st Tb.Indirect)

(* ---------- III-C-1: same-condition run grouping ---------- *)

(* A maximal run of >= 2 consecutive instructions with the same
   non-AL condition, none of which is an ender and at most the last
   of which writes flags, can share one Sync-restore and one guard. *)
let run_length st idx =
  if not st.opt.Opt.elim_restores then 1
  else
    let cond = st.insns.(idx).A.cond in
    if cond = Cond.AL then 1
    else begin
      let n = Array.length st.insns in
      let j = ref idx in
      let stop = ref false in
      while (not !stop) && !j < n do
        let i = st.insns.(!j) in
        if i.A.cond <> cond || is_ender i then stop := true
        else begin
          let writes = A.writes_flags i in
          incr j;
          if writes then stop := true
        end
      done;
      max 1 (!j - idx)
    end

let first_flag_is_def insns =
  let rec scan k =
    if k >= Array.length insns then false
    else
      let i = insns.(k) in
      if A.reads_flags i then false
      else if A.is_memory_access i || A.is_system_level i || is_ender i then false
      else if A.writes_flags i then true
      else scan (k + 1)
  in
  scan 0

(* ---------- entry point ---------- *)

let emit_run st idx len =
  (* Single guard over [idx, idx+len): preload everything the bodies
     touch, evaluate the condition once, then emit bodies as if
     unconditional. *)
  let members = Array.to_list (Array.sub st.insns idx len) in
  let mask = pinned_defs_uses members in
  ensure_loaded_mask st mask;
  spill_flags_if_dirty st;
  store_dirty_regs st;
  (* III-C.1 run grouping: [len] same-condition insns share one guard
     and one Sync-restore; the naive design evaluates each on its own
     (a restore + Jcc per extra member). *)
  credit st Ledger.Elim_restores ~ops:(len - 1)
    ~insns:((len - 1) * (restore_cost ~reduction:st.opt.Opt.reduction + 1));
  let g = open_guard st st.insns.(idx).A.cond in
  let consumed = ref 0 in
  (match g with
  | G_never ->
    List.iter
      (fun (m : A.t) ->
        emit st (X.Count (X.Cnt_guest_insn (Attr.pack ~tier:(native_tier st) m))))
      members;
    consumed := len
  | G_none | G_skip _ ->
    while !consumed < len do
      let k = idx + !consumed in
      let insn = { (st.insns.(k)) with A.cond = Cond.AL } in
      let saved = st.insns.(k) in
      st.insns.(k) <- insn;
      consumed := !consumed + emit_insn st k;
      st.insns.(k) <- saved
    done;
    (* Leave env flags valid at the join if the run's last member
       defined flags. *)
    (match g with
    | G_skip _ -> (
      match st.fl with
      | F_dirty conv -> flags_save st conv
      | F_both _ | F_env -> ())
    | _ -> ()));
  close_guard st g;
  !consumed

let find_irq_sched_index st =
  (* III-D-2: the check can move down to the first unconditional
     memory access if no ender/conditional/exception-prone insn comes
     before it. *)
  if (not st.opt.Opt.sched_irq) || st.opt.Opt.inline_mmu then -1
    (* with the inline fast path, dirty registers stay in host
       registers across memory accesses, so a mid-TB delivery point
       would observe stale env state: the check stays at the head *)
  else begin
    let n = Array.length st.insns in
    let prefix_intact k =
      (* resuming at insns[k]'s original PC must not re-execute or
         skip anything: the first k scheduled insns must be exactly
         the first k original ones. *)
      let ok = ref true in
      for j = 0 to k - 1 do
        if st.origins.(j) >= st.origins.(k) then ok := false
      done;
      !ok && st.origins.(k) = k
    in
    let rec scan k =
      if k >= n then -1
      else
        let i = st.insns.(k) in
        if is_ender i then -1
        else if A.is_memory_access i && i.A.cond = Cond.AL then
          (if not (prefix_intact k) then -1
           else
             match i.A.op with
             | A.Ldr { index = A.Offset; rd; _ } when rd <> 15 -> k
             | A.Str { index = A.Offset; _ } -> k
             | A.Ldm { rn; regs; _ } when regs land 0x8000 = 0 && regs land (1 lsl rn) = 0 -> k
             | A.Stm _ -> k
             | _ -> -1)
        else if A.is_system_level i then -1
        else if i.A.cond <> Cond.AL then -1
        else scan (k + 1)
    in
    scan 0
  end

(* One emitter state runs across every chunk, so a multi-chunk region
   keeps its abstract residency/flag state through the seams instead of
   tearing it down at each TB boundary: the per-boundary Sync pair
   (epilogue flag save, dirty-register spills, pc publish, successor
   restore) and the per-TB head interrupt check disappear region-wide.
   One interrupt check guards the region head — acceptable latency
   because region length is capped. *)
let emit ~opt ~ruleset ~privileged ~chunks ?elide_flag_save ?entry_conv () =
  let head = chunks.(0) in
  let region = Array.length chunks > 1 in
  let slots = if region then Tb.region_exit_slots else Tb.exit_slots in
  let b = Prog.builder () in
  let st =
    {
      b;
      opt;
      ruleset;
      privileged;
      tb_pc = head.pc;
      insns = head.insns;
      origins = head.origins;
      loaded = 0;
      dirty = 0;
      fl = (match entry_conv with Some c -> F_dirty c | None -> F_env);
      exits = Array.make slots Tb.Indirect;
      exit_states = Array.make slots { conv_at_exit = None; flags_save_in_epilogue = false };
      slots_used = 0;
      exit_seen = Array.make slots false;
      elide =
        (match elide_flag_save with Some a -> a | None -> Array.make slots false);
      entry_conv;
      irq_label = Prog.fresh_label b;
      irq_resume_pc = head.pc;
      irq_emitted = false;
      irq_sched_index = -1;
      rule_covered = 0;
      fallback = 0;
      rules_used = [];
      prov = Ledger.zero_prov ();
      in_region = region;
      cov_sites = [];
    }
  in
  st.exits.(Tb.slot_irq) <- Tb.Irq_deliver;
  (* III-D.2 may move a plain TB's check down to its first memory access.
     A region, or a TB entered with live flags (whose stub spills the
     inherited EFLAGS), checks at the head. *)
  if (not region) && entry_conv = None then st.irq_sched_index <- find_irq_sched_index st;
  (* III-C.3 costs at every entry: the head check must guard EFLAGS
     (Savef/Loadf pair) when flags can arrive live.  The engine-side
     install cost is charged dynamically by the translator. *)
  if entry_conv <> None then credit st Ledger.Inter_tb ~ops:0 ~insns:(-2);
  (* III-D.2 (modelled): a mid-TB check runs with state already
     synced, where a head check under live flags would need the same
     Savef/Loadf guard pair. *)
  if st.irq_sched_index >= 0 then credit st Ledger.Sched_irq ~ops:0 ~insns:2
  else emit_irq_check st ~guard_flags:(entry_conv <> None);
  (* Naive design: a plain TB's eager prologue Sync-restore (paper
     Fig. 1 Path 2) *)
  if (not region) && not opt.Opt.elim_restores then begin
    let used = ref 0 in
    let reads_before_def = ref false in
    let seen_def = ref false in
    Array.iter
      (fun (i : A.t) ->
        used := !used lor A.uses i;
        if (not !seen_def) && A.reads_flags i then reads_before_def := true;
        if A.writes_flags i then seen_def := true)
      head.insns;
    ensure_loaded_mask st (!used land Pinmap.pinned_mask);
    if !reads_before_def && st.fl = F_env then flags_restore st
  end;
  for ci = 0 to Array.length chunks - 1 do
    let c = chunks.(ci) in
    st.tb_pc <- c.pc;
    st.insns <- c.insns;
    st.origins <- c.origins;
    (* III-D.1 (modelled): each hoist the scheduler applied turns a
       save/restore coordination pair around a helper into none. *)
    if c.hoists > 0 then
      credit st Ledger.Sched_dbu ~ops:(2 * c.hoists)
        ~insns:
          (c.hoists
          * (save_cost ~reduction:opt.Opt.reduction Flagconv.Canonical
            + restore_cost ~reduction:opt.Opt.reduction));
    let next = if ci + 1 < Array.length chunks then Some chunks.(ci + 1).pc else None in
    let n = Array.length c.insns in
    let idx = ref 0 in
    while !idx < n && not (is_ender c.insns.(!idx)) do
      let len = run_length st !idx in
      idx := !idx + if len > 1 then emit_run st !idx len else emit_insn st !idx
    done;
    if !idx < n then emit_ender st !idx ~next
    else leave_chunk st ~next (Word32.add c.pc (4 * n))
  done;
  assert st.irq_emitted;
  emit_irq_stub st;
  {
    prog = Prog.finalize b;
    exits = st.exits;
    exit_states = st.exit_states;
    first_flag_is_def = first_flag_is_def head.insns;
    rule_covered = st.rule_covered;
    fallback = st.fallback;
    rules_used = List.rev st.rules_used;
    prov = st.prov;
    cov_sites = List.rev st.cov_sites;
  }
