open Repro_common
module A = Repro_arm.Insn
module Cond = Repro_arm.Cond
module Cpu = Repro_arm.Cpu
module Interp = Repro_arm.Interp
module Mem = Repro_arm.Mem
module Bus = Repro_machine.Bus
module X = Repro_x86.Insn
module Exec = Repro_x86.Exec
module Stats = Repro_x86.Stats
module Tb = Repro_tcg.Tb
module Runtime = Repro_tcg.Runtime
module Envspec = Repro_tcg.Envspec
module Costs = Repro_tcg.Costs
module Translator_qemu = Repro_tcg.Translator_qemu
module Flagconv = Repro_rules.Flagconv
module Pinmap = Repro_rules.Pinmap
module Rule = Repro_rules.Rule
module Ruleset = Repro_rules.Ruleset
module Fi = Repro_faultinject.Faultinject
module Trace = Repro_observe.Trace
module Ledger = Repro_perfscope.Ledger
module Covscope = Repro_covscope
module Enc = Repro_snapshot.Snapshot.Enc
module Dec = Repro_snapshot.Snapshot.Dec

(* Per-TB metadata the emitter produces and the linker consumes, kept
   on the TB. A value: a re-emission stores a new one beside the new
   program, so a copy of the TB record keeps the meta it was taken
   with. *)
type meta = {
  chunks : Emitter.chunk array;
      (* what [Emitter.emit] re-emits in place: the scheduled block of a
         plain TB, one chunk per constituent of a fused superblock *)
  elide : bool array;
  entry_conv : Flagconv.t option;
  exit_states : Emitter.exit_state array;
  first_flag_is_def : bool;
  rules_used : (Rule.t * int) list;
      (* distinct rules in the current emission, each with the guest
         register def-mask of its matched instructions *)
  shadowable : bool;  (* replayable on the reference interpreter *)
}

type Tb.meta += Rule_meta of meta

(* The reference-replay result shadow verification compares against:
   architectural state after the TB plus the byte-level memory effect
   (an overlay — replay stores never touch the real machine). *)
type expectation = {
  exp_tb : int;
  exp_regs : int array;  (* r0..r14 *)
  exp_pc : Word32.t;
  exp_flags : Word32.t;  (* NZCV in bits 31..28 *)
  writes : (int, int) Hashtbl.t;  (* physical byte address -> value *)
}

type t = {
  sites : Covscope.Static.t;
      (* every first emission's rule-template sites, per rule *)
  ledger : Ledger.t option;
      (* receives every emission's static savings, link-time
         re-emissions included *)
  opt : Opt.t;
  ruleset : Ruleset.t;
  shadow_depth : int;
  quarantine_threshold : int;
  blacklist : (Word32.t, unit) Hashtbl.t;  (* guest PCs sent to baseline *)
  shadow_done : (Word32.t, int) Hashtbl.t;  (* completed comparisons per PC *)
  shadow_tries : (Word32.t, int) Hashtbl.t;  (* armed replays per PC *)
  mutable pending : expectation option;
  mutable rule_covered : int;
  mutable fallback : int;
  mutable inter_tb_elisions : int;
}

let create ~opt ~ruleset ?(shadow_depth = 0) ?(quarantine_threshold = 2) ?ledger () =
  {
    sites = Covscope.Static.create ();
    ledger;
    opt;
    ruleset;
    shadow_depth;
    quarantine_threshold;
    blacklist = Hashtbl.create 16;
    shadow_done = Hashtbl.create 64;
    shadow_tries = Hashtbl.create 64;
    pending = None;
    rule_covered = 0;
    fallback = 0;
    inter_tb_elisions = 0;
  }

(* Translation-time statics: the rule-template sites into the
   translator's own tally, the provenance into the ledger when one is
   attached. Installed code is never emitted here, so it records
   nothing. A first emission records its provenance and its sites. A
   re-emission [~replacing] a TB's old provenance records only the
   difference — the static view tracks the live code without
   re-bumping the translation count — and no sites, which were
   counted when the TB was first built. *)
let record_statics t ?replacing (r : Emitter.result) =
  match replacing with
  | None ->
    List.iter
      (fun (id, n) -> Covscope.Static.record t.sites ~rule:id ~host_insns:n)
      r.Emitter.cov_sites;
    Option.iter (fun l -> Ledger.record_static l r.Emitter.prov) t.ledger
  | Some old_ ->
    Option.iter
      (fun l -> Ledger.record_static_delta l (Ledger.prov_diff ~old_ r.Emitter.prov))
      t.ledger

(* ---------- III-D-1: define-before-use scheduling ----------

   When a flag producer P and its consumer C are separated by
   independent instructions (typically a ld/st that will force a
   coordination pair around the helper while flags are live), hoist
   the independent block above P so P and C become adjacent. *)

let is_store (m : A.t) =
  match m.A.op with A.Str _ | A.Stm _ -> true | _ -> false

let independent_of_producer (m : A.t) (p : A.t) =
  let defs_m = A.defs m and uses_m = A.uses m in
  let defs_p = A.defs p and uses_p = A.uses p in
  defs_m land (uses_p lor defs_p) = 0
  && uses_m land defs_p = 0
  && (not (A.reads_flags m))
  && (not (A.writes_flags m))
  && (not (A.is_system_level m))
  (* Stores are never hoisted: an MMIO store may halt or trap the
     machine, making instructions between it and its original position
     observable. Loads in our platform are side-effect free (Fig. 12
     hoists an ldr). *)
  && not (is_store m)

let is_ender (i : A.t) =
  A.is_branch i
  ||
  match i.A.op with
  | A.Svc _ | A.Udf _ | A.Cps _ | A.Mcr _ | A.Msr { write_control = true; _ } -> true
  | _ -> false

let schedule_indexed ?hoists ~opt insns =
  let tagged = Array.mapi (fun i x -> (x, i)) insns in
  if not opt.Opt.sched_dbu then tagged
  else begin
    let lst = ref (Array.to_list tagged) in
    let changed = ref true in
    let guard = ref 0 in
    while !changed && !guard < 8 do
      changed := false;
      incr guard;
      let arr = Array.of_list !lst in
      let n = Array.length arr in
      (try
         for i = 0 to n - 1 do
           let p, _ = arr.(i) in
           if A.writes_flags p && p.A.cond = Cond.AL && not (is_ender p) then begin
             (* find the consumer *)
             let rec find_consumer j =
               if j >= n then None
               else if A.reads_flags (fst arr.(j)) then Some j
               else if A.writes_flags (fst arr.(j)) then None
               else find_consumer (j + 1)
             in
             match find_consumer (i + 1) with
             | Some j when j > i + 1 ->
               let between = Array.to_list (Array.sub arr (i + 1) (j - i - 1)) in
               if
                 List.for_all
                   (fun (m, _) -> independent_of_producer m p && not (is_ender m))
                   between
               then begin
                 (* hoist [between] above P, keeping internal order *)
                 let prefix = Array.to_list (Array.sub arr 0 i) in
                 let suffix = Array.to_list (Array.sub arr j (n - j)) in
                 lst := prefix @ between @ [ arr.(i) ] @ suffix;
                 (match hoists with Some h -> incr h | None -> ());
                 changed := true;
                 raise Exit
               end
             | _ -> ()
           end
         done
       with Exit -> ())
    done;
    Array.of_list !lst
  end

let schedule ~opt insns = Array.map fst (schedule_indexed ~opt insns)

(* ---------- shadow verification (replay on the reference) ----------

   A TB is replayable when every instruction's effect is confined to
   the current-view registers, NZCV and ordinary RAM: no system-level
   instructions (mode/cp15/PSR effects need helper semantics), no PC
   destinations outside branches (an exception-return [movs pc] or an
   [ldm {..pc}] would need banked state the replay CPU copy lacks). *)

let shadowable_insn (i : A.t) =
  (not (A.is_system_level i))
  &&
  match i.A.op with
  | A.Udf _ -> false
  | A.Dp { op; rd; _ } -> A.dp_op_is_test op || rd <> 15
  | A.Mul { rd; _ } -> rd <> 15
  | A.Mull { rdlo; rdhi; _ } -> rdlo <> 15 && rdhi <> 15
  | A.Clz { rd; _ } -> rd <> 15
  | A.Movw { rd; _ } | A.Movt { rd; _ } -> rd <> 15
  | A.Ldr { rd; _ } | A.Ldrs { rd; _ } -> rd <> 15
  | A.Str _ | A.Stm _ -> true
  | A.Ldm { regs; _ } -> regs land 0x8000 = 0
  | A.B _ | A.Bx _ | A.Nop -> true
  | A.Mrs _ | A.Msr _ | A.Svc _ | A.Cps _ | A.Mcr _ | A.Mrc _ | A.Vmsr _
  | A.Vmrs _ -> false

exception Shadow_abort
(* Replay crossed a boundary it cannot model purely (MMIO, bus error,
   guest exception): discard the comparison. *)

let count tbl key = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0
let bump tbl key = Hashtbl.replace tbl key (count tbl key + 1)

(* Run the reference interpreter over the TB's guest instructions from
   the current entry state, against an overlay memory view: loads see
   the machine plus earlier replay stores, stores only the overlay. *)
let replay (rt : Runtime.t) (tb : Tb.t) =
  let env = Runtime.env rt in
  let bus = rt.Runtime.bus in
  let scpu = Cpu.of_snapshot (Cpu.to_snapshot rt.Runtime.cpu) in
  for i = 0 to 14 do
    Cpu.set_reg scpu i env.(Envspec.reg i)
  done;
  Cpu.set_pc scpu tb.Tb.guest_pc;
  Cpu.set_flags scpu (Cond.flags_of_word (Envspec.flags_word env));
  let writes : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let read_byte paddr =
    match Hashtbl.find_opt writes paddr with
    | Some b -> b
    | None -> ( try Bus.read8 bus paddr with Bus.Bus_error -> raise Shadow_abort)
  in
  let xlate vaddr ~access ~privileged =
    let paddr = Repro_mmu.Mmu.translate bus scpu vaddr ~access ~privileged in
    if Bus.is_ram bus paddr then paddr else raise Shadow_abort
  in
  let nbytes = function Mem.W8 -> 1 | Mem.W16 -> 2 | Mem.W32 -> 4 in
  let read_bytes paddr n =
    let v = ref 0 in
    for k = n - 1 downto 0 do
      v := (!v lsl 8) lor read_byte (paddr + k)
    done;
    !v
  in
  let load width ~privileged vaddr =
    if not (Mem.aligned width vaddr) then Mem.fault vaddr Mem.Load Mem.Alignment
    else read_bytes (xlate vaddr ~access:Mem.Load ~privileged) (nbytes width)
  in
  let store width ~privileged vaddr value =
    if not (Mem.aligned width vaddr) then Mem.fault vaddr Mem.Store Mem.Alignment
    else
      let paddr = xlate vaddr ~access:Mem.Store ~privileged in
      for k = 0 to nbytes width - 1 do
        Hashtbl.replace writes (paddr + k) ((value lsr (8 * k)) land 0xFF)
      done
  in
  let fetch ~privileged vaddr =
    if vaddr land 3 <> 0 then Mem.fault vaddr Mem.Fetch Mem.Alignment
    else read_bytes (xlate vaddr ~access:Mem.Fetch ~privileged) 4
  in
  let smem = { Mem.load; store; fetch; flush_tlb = (fun () -> ()) } in
  match
    for _ = 1 to tb.Tb.guest_len do
      match Interp.step rt.Runtime.dcache scpu smem ~irq:false with
      | Interp.Stepped -> ()
      | Interp.Took_exception _ | Interp.Decode_error _ -> raise Shadow_abort
    done
  with
  | () ->
    Some
      {
        exp_tb = tb.Tb.id;
        exp_regs = Array.init 15 (Cpu.get_reg scpu);
        exp_pc = Cpu.get_pc scpu;
        exp_flags = Cond.flags_to_word (Cpu.get_flags scpu);
        writes;
      }
  | exception Shadow_abort -> None

(* Sampling policy: the first [shadow_depth] engine-dispatched
   executions of each rule-carrying, replayable TB address are
   verified (chained executions are not interrupted; a bounded number
   of armed-but-discarded replays per address stops MMIO-adjacent
   blocks from being replayed forever). *)
let arm_shadow t (rt : Runtime.t) (tb : Tb.t) =
  t.pending <- None;
  if t.shadow_depth > 0 && not (Hashtbl.mem t.blacklist tb.Tb.guest_pc) then
    match tb.Tb.meta with
    | Rule_meta m when m.rules_used <> [] && m.shadowable ->
      if
        count t.shadow_done tb.Tb.guest_pc < t.shadow_depth
        && count t.shadow_tries tb.Tb.guest_pc < 4 * t.shadow_depth
      then begin
        bump t.shadow_tries tb.Tb.guest_pc;
        let stats = Runtime.stats rt in
        Stats.charge_tag stats X.Tag_glue (Costs.interp_one () * tb.Tb.guest_len);
        t.pending <- replay rt tb
      end
    | _ -> ()

let on_executed t (rt : Runtime.t) (tb : Tb.t) ~outcome ~guest =
  match t.pending with
  | None -> `Continue
  | Some exp -> (
    t.pending <- None;
    ignore guest;
    (* [Exited] through a non-irq slot means the block ran to its end:
       mid-block departures are the irq slot or a helper stop
       (exceptions, halts), both excluded below. The guest count is NOT
       compared to [guest_len]: condition-failed instructions retire
       without ticking the counter. *)
    match outcome with
    | Exec.Exited slot
      when exp.exp_tb = tb.Tb.id && tb.Tb.exits.(slot) <> Tb.Irq_deliver -> (
      let stats = Runtime.stats rt in
      let env = Runtime.env rt in
      stats.Stats.shadow_replays <- stats.Stats.shadow_replays + 1;
      (match rt.Runtime.trace with
      | Some tr -> Trace.emit tr ~a:tb.Tb.guest_pc Shadow "replay"
      | None -> ());
      bump t.shadow_done tb.Tb.guest_pc;
      (* With the flag save elided from this exit (inter-TB), env's
         flag word is architecturally stale — skip the comparison but
         keep the replay's flags for repair. *)
      let flags_comparable =
        match tb.Tb.meta with Rule_meta m -> not m.elide.(slot) | _ -> false
      in
      let reg_divergence = ref 0 in
      for i = 0 to 14 do
        if env.(Envspec.reg i) <> exp.exp_regs.(i) then
          reg_divergence := !reg_divergence lor (1 lsl i)
      done;
      if env.(Envspec.pc) <> exp.exp_pc then
        reg_divergence := !reg_divergence lor (1 lsl 15);
      let flags_diverged =
        flags_comparable
        && Envspec.flags_word env land 0xF0000000
           <> exp.exp_flags land 0xF0000000
      in
      let mem_diverged = ref false in
      Hashtbl.iter
        (fun paddr b ->
          match Bus.read8 rt.Runtime.bus paddr with
          | b' -> if b' <> b then mem_diverged := true
          | exception Bus.Bus_error -> mem_diverged := true)
        exp.writes;
      if !reg_divergence = 0 && (not flags_diverged) && not !mem_diverged then
        `Continue
      else begin
        stats.Stats.shadow_divergences <- stats.Stats.shadow_divergences + 1;
        (match rt.Runtime.trace with
        | Some tr ->
          Trace.emit tr ~a:tb.Tb.guest_pc ~b:!reg_divergence Shadow "divergence"
        | None -> ());
        (* Repair guest state from the reference replay... *)
        for i = 0 to 14 do
          env.(Envspec.reg i) <- exp.exp_regs.(i)
        done;
        env.(Envspec.pc) <- exp.exp_pc;
        Envspec.set_flags_both env (exp.exp_flags land 0xF0000000);
        Hashtbl.iter
          (Ram.set8 rt.Runtime.ctx.Exec.ram)
          exp.writes;
        Runtime.sync_env_to_cpu rt;
        (* ...blacklist the address (it retranslates via the baseline)
           and strike the implicated rules: those that wrote a diverged
           register, any flag-writing rule when the flags diverged, and
           every rule when only memory diverged (stores cannot be
           attributed). If attribution comes up empty, strike all. *)
        Hashtbl.replace t.blacklist tb.Tb.guest_pc ();
        (match tb.Tb.meta with
        | Rule_meta m ->
          let implicated (rule : Rule.t) defs =
            defs land !reg_divergence <> 0
            || (flags_diverged && rule.Rule.flags.Rule.guest_writes)
            || !mem_diverged
          in
          let targets =
            match List.filter (fun (r, d) -> implicated r d) m.rules_used with
            | [] -> m.rules_used
            | hits -> hits
          in
          List.iter
            (fun (rule, _) ->
              if Ruleset.strike t.ruleset rule ~threshold:t.quarantine_threshold
              then
                stats.Stats.rules_quarantined <- stats.Stats.rules_quarantined + 1)
            targets
        | _ -> ());
        `Invalidate
      end)
    | _ ->
      (* IRQ preemption, a mid-TB guest exception or a helper stop:
         the TB did not run to a clean architectural exit, so the
         replay is not comparable. Discarded, not counted. *)
      `Continue)

(* ---------- translation ---------- *)

(* [prog] re-emitted with its first instruction that [f] maps to
   [Some insns] replaced by [insns] (same tag); [prog] itself if [f]
   maps none. *)
let rewrite_first (prog : Repro_x86.Prog.t) f =
  let code = prog.Repro_x86.Prog.code and tags = prog.Repro_x86.Prog.tags in
  let rebuild hit insns =
    let b = Repro_x86.Prog.builder () in
    Array.iteri
      (fun i insn ->
        if i = hit then Repro_x86.Prog.emit_all b ~tag:tags.(i) insns
        else Repro_x86.Prog.emit b ~tag:tags.(i) insn)
      code;
    Repro_x86.Prog.finalize b
  in
  let rec scan i =
    if i >= Array.length code then prog
    else match f code.(i) with Some insns -> rebuild i insns | None -> scan (i + 1)
  in
  scan 0

(* Fault point: a misdirected register spill in rule-generated code —
   the first env register write lands one slot over. Confined to
   r0..r13 so shadow verification can both detect and repair it. *)
let corrupt_prog prog =
  rewrite_first prog (function
    | X.Mov { width = X.W32; dst = X.Mem ({ seg = X.Env; disp; _ } as m); src }
      when disp land 3 = 0 && disp / 4 <= 12 ->
      Some [ X.Mov { width = X.W32; dst = X.Mem { m with disp = disp + 4 }; src } ]
    | _ -> None)

(* Fault point: rule-generated code sabotaged into a tight host loop —
   the first real instruction becomes a jump to itself. The TB never
   reaches an exit, burning its host fuel; only the engine's typed
   {!Repro_x86.Exec.Fuel_exhausted} watchdog path can recover. *)
let livelock_prog prog =
  let fresh =
    1
    + Array.fold_left
        (fun acc insn -> match insn with X.Label l -> max l acc | _ -> acc)
        0 prog.Repro_x86.Prog.code
  in
  rewrite_first prog (fun insn ->
      if Repro_x86.Prog.is_pseudo insn then None else Some [ X.Label fresh; X.Jmp fresh ])

(* Emit [m]'s chunks; the emission's meta is [m] with what the emitter
   found. *)
let emit_meta t ~privileged m =
  let r =
    Emitter.emit ~opt:t.opt ~ruleset:t.ruleset ~privileged ~chunks:m.chunks
      ~elide_flag_save:m.elide ?entry_conv:m.entry_conv ()
  in
  ( r,
    {
      m with
      exit_states = r.Emitter.exit_states;
      first_flag_is_def = r.Emitter.first_flag_is_def;
      rules_used = r.Emitter.rules_used;
    } )

(* Memory accesses hoisted above architecturally-earlier instructions
   (define-before-use scheduling): if such an access faults, the
   skipped instructions have not run in host order yet, so the runtime
   must replay them before exception entry. *)
let fault_producers (c : Emitter.chunk) =
  let acc = ref [] in
  Array.iteri
    (fun k insn ->
      if A.is_memory_access insn then begin
        let q = c.origins.(k) in
        let skipped = ref [] in
        for j = k + 1 to Array.length c.origins - 1 do
          if c.origins.(j) < q then skipped := c.origins.(j) :: !skipped
        done;
        if !skipped <> [] then begin
          let pcs =
            List.sort compare !skipped
            |> List.map (fun o -> Word32.add c.pc (4 * o))
            |> Array.of_list
          in
          acc := (Word32.add c.pc (4 * q), pcs) :: !acc
        end
      end)
    c.insns;
  Array.of_list (List.rev !acc)

(* The one way a rule-emitted cache entry comes to be, plain TB and
   fused region alike: emit [chunks] and wrap the code and its meta at
   the head PC. *)
let new_tb t cache chunks ~shadowable ~privileged ~mmu_on ~guest_insns ~region_ids =
  let slots = if Array.length chunks > 1 then Tb.region_exit_slots else Tb.exit_slots in
  let r, m =
    emit_meta t ~privileged
      {
        chunks;
        elide = Array.make slots false;
        entry_conv = None;
        exit_states = [||];
        first_flag_is_def = false;
        rules_used = [];
        shadowable;
      }
  in
  record_statics t r;
  let tb =
    {
      Tb.id = Tb.Cache.next_id cache;
      guest_pc = chunks.(0).Emitter.pc;
      privileged;
      mmu_on;
      prog = r.Emitter.prog;
      exits = r.Emitter.exits;
      links = Array.make slots None;
      guest_insns;
      guest_len = Array.length guest_insns;
      fault_producers = Array.concat (List.map fault_producers (Array.to_list chunks));
      injected = `None;
      prov = r.Emitter.prov;
      hot = 0;
      region_ids;
      meta = Rule_meta m;
    }
  in
  (r, tb)

let build_tb t (rt : Runtime.t) cache ~insns chunk =
  let r, tb =
    new_tb t cache [| chunk |]
      ~shadowable:(Array.for_all shadowable_insn insns)
      ~privileged:(Runtime.privileged rt)
      ~mmu_on:(Repro_arm.Cpu.mmu_enabled rt.Runtime.cpu) ~guest_insns:insns ~region_ids:[||]
  in
  t.rule_covered <- t.rule_covered + r.Emitter.rule_covered;
  t.fallback <- t.fallback + r.Emitter.fallback;
  (match rt.Runtime.inject with
  | Some inj when r.Emitter.rule_covered > 0 ->
    if Fi.fire inj Fi.Rule_corrupt then begin
      tb.Tb.prog <- corrupt_prog tb.Tb.prog;
      tb.Tb.injected <- `Rule_corrupt
    end
    else if Fi.fire inj Fi.Host_livelock then begin
      tb.Tb.prog <- livelock_prog tb.Tb.prog;
      tb.Tb.injected <- `Livelock
    end
  | _ -> ());
  tb

let translate t (rt : Runtime.t) cache ~pc =
  if Hashtbl.mem t.blacklist pc then begin
    let stats = Runtime.stats rt in
    stats.Stats.quarantine_fallbacks <- stats.Stats.quarantine_fallbacks + 1;
    Translator_qemu.translate rt cache ~pc
  end
  else
    let privileged = Runtime.privileged rt in
    match rt.Runtime.mem.Mem.fetch ~privileged pc with
    | exception Mem.Fault f -> Error f
    | _ ->
      (* Bailout ladder: emitter resource overflow retries with half
         the block, bottoming out at the single-instruction
         interpreter TB (shared with the baseline). *)
      let rec attempt cap =
        match Translator_qemu.fetch_block ?cap rt ~pc with
        | [] -> Ok (Translator_qemu.emulate_one_tb rt cache ~pc)
        | insns_list -> (
          let insns = Array.of_list insns_list in
          let hoists = ref 0 in
          let tagged = schedule_indexed ~hoists ~opt:t.opt insns in
          let chunk =
            { Emitter.pc; insns = Array.map fst tagged; origins = Array.map snd tagged;
              hoists = !hoists }
          in
          try Ok (build_tb t rt cache ~insns chunk) with Tb.Tb_too_complex ->
            let n = Array.length insns in
            if n <= 1 then Ok (Translator_qemu.emulate_one_tb rt cache ~pc)
            else attempt (Some (max 1 (n / 2))))
      in
      attempt None

(* Re-emit a TB in place under a changed meta [m] (elision / entry
   assumption). The engine holds the tb record, so the new program and
   the meta it was emitted from replace the old ones in it. Regions
   re-emit from their recorded chunks like any TB — they are
   first-class citizens of the inter-TB optimization, on both sides of
   a chained edge. *)
let re_emit t (tb : Tb.t) m =
  let r, m = emit_meta t ~privileged:tb.Tb.privileged m in
  tb.Tb.prog <- r.Emitter.prog;
  tb.Tb.meta <- Rule_meta m;
  record_statics t ~replacing:tb.Tb.prov r;
  tb.Tb.prov <- r.Emitter.prov;
  (* a fresh emission discards any injected code corruption *)
  tb.Tb.injected <- `None

(* ---------- hot-region superblocks ----------

   When the engine reports a TB hot, walk its hottest chain of direct
   successors (loop-closed or length-capped), fuse the trace through
   {!Emitter.emit} and install the superblock over the head PC.
   The constituents stay in the plain table: cold entries mid-trace
   (the region's interior is not addressable) still dispatch them, and
   an SMC flush simply drops both views. *)

let max_region_chunks = 8

let has_meta (tb : Tb.t) = match tb.Tb.meta with Rule_meta _ -> true | _ -> false

(* The engine's [on_hot] hook: select the trace, then fuse. *)
let form_region t (rt : Runtime.t) cache (head : Tb.t) =
  let fusable_head =
    t.opt.Opt.regions
    && (not (Tb.is_region head))
    && head.Tb.injected = `None
    && (not (Hashtbl.mem t.blacklist head.Tb.guest_pc))
    && (not (Tb.Cache.near_capacity cache))
    && has_meta head
  in
  if not fusable_head then None
  else begin
    (* An interior chunk must end in a plain B (both directions
       seamable) or fall through (no ender at all). *)
    let can_interior (tb : Tb.t) =
      match tb.Tb.meta with
      | Rule_meta { chunks = [| { Emitter.insns; _ } |]; _ } ->
        let n = Array.length insns in
        n > 0
        &&
        (match insns.(n - 1).A.op with
        | A.B _ -> true
        | _ -> not (Array.exists is_ender insns))
      | _ -> false
    in
    (* Hottest linked direct successor; first slot wins ties so the
       choice is deterministic under snapshot replay. *)
    let pick_succ (tb : Tb.t) =
      let best = ref None in
      Array.iteri
        (fun i l ->
          match (tb.Tb.exits.(i), l) with
          | Tb.Direct _, Some (s : Tb.t) -> (
            match !best with
            | Some (b : Tb.t) when b.Tb.hot >= s.Tb.hot -> ()
            | _ -> best := Some s)
          | _ -> ())
        tb.Tb.links;
      !best
    in
    let seen = Hashtbl.create 8 in
    Hashtbl.replace seen head.Tb.id ();
    let rev_trace = ref [ head ] in
    let count = ref 1 in
    let cur = ref head in
    let stop = ref false in
    while not !stop do
      if !count >= max_region_chunks then stop := true
      else if not (can_interior !cur) then stop := true
      else
        match pick_succ !cur with
        | None -> stop := true
        | Some s ->
          if
            s.Tb.guest_pc = head.Tb.guest_pc (* loop closed *)
            || Tb.is_region s
            || s.Tb.injected <> `None
            || s.Tb.privileged <> head.Tb.privileged
            || s.Tb.mmu_on <> head.Tb.mmu_on
            || Hashtbl.mem seen s.Tb.id
            || Hashtbl.mem t.blacklist s.Tb.guest_pc
            || not (has_meta s)
          then stop := true
          else begin
            Hashtbl.replace seen s.Tb.id ();
            rev_trace := s :: !rev_trace;
            incr count;
            cur := s
          end
    done;
    if !count < 2 then None
    else begin
      (* An entry assumption binds the head to its eliding chained
         predecessors, and the region is reached through dispatch —
         where the assumption would read stale env flags. Dissolve the
         contract first: every predecessor edge into the head saves its
         flags again, and the head stops assuming. *)
      (match head.Tb.meta with
      | Rule_meta { entry_conv = Some _; _ } -> (
        List.iter
          (fun (p : Tb.t) ->
            match p.Tb.meta with
            | Rule_meta pm ->
              let into_head slot =
                slot < Array.length p.Tb.exits
                &&
                match p.Tb.exits.(slot) with
                | Tb.Direct pc ->
                  pc = head.Tb.guest_pc
                  && p.Tb.privileged = head.Tb.privileged
                  && p.Tb.mmu_on = head.Tb.mmu_on
                | _ -> false
              in
              let elide = Array.mapi (fun slot el -> el && not (into_head slot)) pm.elide in
              if elide <> pm.elide then re_emit t p { pm with elide }
            | _ -> ())
          (Tb.Cache.to_list cache @ Tb.Cache.regions_list cache);
        (* read again: the loop re-emits the head if it is its own
           predecessor *)
        match head.Tb.meta with
        | Rule_meta hm -> re_emit t head { hm with entry_conv = None }
        | _ -> ())
      | _ -> ());
      (* Fuse the trace (every constituent has a meta) and install the
         result; the emitter may still reject it. *)
      let trace = List.rev !rev_trace in
      let chunk (tb : Tb.t) =
        match tb.Tb.meta with Rule_meta m -> m.chunks.(0) | _ -> invalid_arg "form_region"
      in
      match
        new_tb t cache
          (Array.of_list (List.map chunk trace))
          (* shadow verification replays straight-line blocks on the
             reference interpreter; a multi-path region is not one *)
          ~shadowable:false ~privileged:head.Tb.privileged ~mmu_on:head.Tb.mmu_on
          ~guest_insns:(Array.concat (List.map (fun (tb : Tb.t) -> tb.Tb.guest_insns) trace))
          ~region_ids:(Array.of_list (List.map (fun (tb : Tb.t) -> tb.Tb.id) trace))
      with
      | exception Tb.Tb_too_complex -> None
      | _, region ->
        Tb.Cache.add_region cache region ~members:trace;
        (* Stale chained jumps into the head would keep bypassing the
           region; force the next transfer there through dispatch. *)
        Tb.Cache.unlink_target cache head;
        let stats = Runtime.stats rt in
        Stats.charge_tag stats X.Tag_glue
          (Costs.region_form_per_guest_insn () * region.Tb.guest_len);
        stats.Stats.regions_formed <- stats.Stats.regions_formed + 1;
        Some region
    end
  end

(* ---------- III-C-3: inter-TB elimination at chain time ---------- *)

let link_hook t ~pred ~slot ~succ =
  if t.opt.Opt.inter_tb && pred.Tb.id <> succ.Tb.id then
    match (pred.Tb.meta, succ.Tb.meta) with
    | Rule_meta pm, Rule_meta sm -> (
      let ex = pm.exit_states.(slot) in
      if
        ex.Emitter.flags_save_in_epilogue
        && (not pm.elide.(slot))
        && sm.first_flag_is_def
      then
        match ex.Emitter.conv_at_exit with
        | None -> ()
        | Some conv -> (
          let elide_pred () =
            let elide = Array.copy pm.elide in
            elide.(slot) <- true;
            t.inter_tb_elisions <- t.inter_tb_elisions + 1;
            re_emit t pred { pm with elide }
          in
          match sm.entry_conv with
          | Some existing when existing <> conv -> () (* incompatible assumption *)
          | Some _ -> elide_pred ()
          | None ->
            (* First elided edge into succ: give it the assumption and
               the EFLAGS-spilling interrupt stub. *)
            re_emit t succ { sm with entry_conv = Some conv };
            elide_pred ()))
    | _ -> ()

(* ---------- engine-dispatch entry restore ---------- *)

let on_enter t (rt : Runtime.t) (tb : Tb.t) =
  (match tb.Tb.meta with
  | Rule_meta { entry_conv = Some conv; _ } ->
    (* The TB assumes guest flags live in EFLAGS under [conv];
       install them from env (engine-side Sync-restore). *)
    let env = Runtime.env rt in
    let arm = Envspec.flags_word env in
    let bits =
      if Flagconv.carry_inverted conv then Envspec.to_canonical arm else arm
    in
    Exec.set_flags_word rt.Runtime.ctx bits;
    let stats = Runtime.stats rt in
    (* the one engine-side Sync charge besides the interrupt's lazy
       parse: the ledger counts the entry window's share as III-C.3's
       dynamic cost *)
    Stats.charge_tag stats X.Tag_sync 2;
    stats.Stats.sync_ops <- stats.Stats.sync_ops + 1;
    (match rt.Runtime.trace with
    | Some tr -> Trace.emit tr ~a:tb.Tb.guest_pc Sync "entry_restore"
    | None -> ())
  | _ -> ());
  arm_shadow t rt tb

let rule_sites t = t.sites
let stats_rule_covered t = t.rule_covered
let stats_fallback t = t.fallback
let blacklist_size t = Hashtbl.length t.blacklist

(* ---------- snapshot support ----------

   The translator's durable state is small: the PC blacklist, the
   per-PC shadow-sampling counters and three statistics. A TB's meta
   is on the TB, so it rides with the code cache: a capture's copy of
   the TB holds it, the cache's bytes carry it whole ([encode_meta]),
   and an installed copy holds it again. [pending] is
   always [None] at a checkpoint (checkpoints fire at TB boundaries
   before [on_enter] arms it). *)

type saved = {
  s_blacklist : Word32.t list;
  s_shadow_done : (Word32.t * int) list;
  s_shadow_tries : (Word32.t * int) list;
  s_rule_covered : int;
  s_fallback : int;
  s_inter_tb_elisions : int;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let save_state t =
  {
    s_blacklist = List.map fst (sorted_bindings t.blacklist);
    s_shadow_done = sorted_bindings t.shadow_done;
    s_shadow_tries = sorted_bindings t.shadow_tries;
    s_rule_covered = t.rule_covered;
    s_fallback = t.fallback;
    s_inter_tb_elisions = t.inter_tb_elisions;
  }

let restore_state t s =
  Hashtbl.reset t.blacklist;
  List.iter (fun pc -> Hashtbl.replace t.blacklist pc ()) s.s_blacklist;
  Hashtbl.reset t.shadow_done;
  List.iter (fun (pc, n) -> Hashtbl.replace t.shadow_done pc n) s.s_shadow_done;
  Hashtbl.reset t.shadow_tries;
  List.iter (fun (pc, n) -> Hashtbl.replace t.shadow_tries pc n) s.s_shadow_tries;
  t.pending <- None;
  t.rule_covered <- s.s_rule_covered;
  t.fallback <- s.s_fallback;
  t.inter_tb_elisions <- s.s_inter_tb_elisions

let stale t (tb : Tb.t) =
  match tb.Tb.meta with
  | Rule_meta m ->
    Hashtbl.mem t.blacklist tb.Tb.guest_pc
    || List.exists (fun (r, _) -> Ruleset.is_quarantined t.ruleset r) m.rules_used
  | _ -> false

(* Flag conventions by their position here. *)
let convs = None :: List.map Option.some Flagconv.all

let encode_meta b (meta : Tb.meta) =
  match meta with
  | Rule_meta m ->
    Enc.bool b true;
    Enc.array b
      (fun b (c : Emitter.chunk) ->
        Enc.nat b c.Emitter.pc;
        Enc.array b Enc.nat c.Emitter.origins;
        Enc.nat b c.Emitter.hoists)
      m.chunks;
    Enc.array b Enc.bool m.elide;
    Enc.enum convs b m.entry_conv;
    Enc.array b
      (fun b (e : Emitter.exit_state) ->
        Enc.enum convs b e.Emitter.conv_at_exit;
        Enc.bool b e.Emitter.flags_save_in_epilogue)
      m.exit_states;
    Enc.bool b m.first_flag_is_def;
    Enc.list b (fun b ((r : Rule.t), defs) -> Enc.nat b r.Rule.id; Enc.nat b defs) m.rules_used;
    Enc.bool b m.shadowable
  | _ -> Enc.bool b false

let decode_meta ~rule ~slots ~guest r =
  let corrupt s = raise (Repro_snapshot.Snapshot.Corrupt ("cache: " ^ s)) in
  match (Dec.bool r, rule) with
  | false, _ -> Tb.No_meta
  | true, None -> corrupt "translator meta for a qemu-mode machine"
  | true, Some rule ->
    (* a chunk is its block of [guest], the TB's fetched code, scheduled *)
    let block = ref 0 in
    let chunk r =
      let pc = Dec.nat r in
      let origins = Dec.array r Dec.nat in
      let n = Array.length origins in
      if !block + n > Array.length guest || Array.exists (fun o -> o >= n) origins then
        corrupt "chunk outside its block";
      let insns = Array.map (fun o -> guest.(!block + o)) origins in
      block := !block + n;
      { Emitter.pc; insns; origins; hoists = Dec.nat r }
    in
    let chunks = Dec.array r chunk in
    let elide = Dec.array r Dec.bool in
    let entry_conv = Dec.enum convs r in
    let exit_states =
      Dec.array r (fun r ->
          let conv_at_exit = Dec.enum convs r in
          { Emitter.conv_at_exit; flags_save_in_epilogue = Dec.bool r })
    in
    if Array.length chunks = 0 || !block <> Array.length guest || Array.length elide <> slots
       || Array.length exit_states <> slots
    then corrupt "meta shaped for another block";
    let first_flag_is_def = Dec.bool r in
    let rule_used r =
      let id = Dec.nat r in
      match rule id with
      | Some rule -> (rule, Dec.nat r)
      | None -> corrupt (Printf.sprintf "unknown rule id %d" id)
    in
    let rules_used = Dec.list r rule_used in
    Rule_meta
      { chunks; elide; entry_conv; exit_states; first_flag_is_def; rules_used; shadowable = Dec.bool r }
