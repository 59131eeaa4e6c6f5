module Runtime = Repro_tcg.Runtime
module Engine = Repro_tcg.Engine
module Tb = Repro_tcg.Tb
module Helpers = Repro_tcg.Helpers
module Devices = Repro_machine.Devices
module Bus = Repro_machine.Bus
module Cpu = Repro_arm.Cpu
module Stats = Repro_x86.Stats
module Tlb = Repro_mmu.Mmu.Tlb
module Fi = Repro_faultinject.Faultinject
module Ruleset = Repro_rules.Ruleset
module Flagconv = Repro_rules.Flagconv
module Snapshot = Repro_snapshot.Snapshot
module Journal = Repro_snapshot.Journal
module Depot = Repro_aotcache.Depot
module Trace = Repro_observe.Trace
module Scope = Repro_perfscope.Scope

type mode = Qemu | Rules of Opt.t

let mode_name = function
  | Qemu -> "qemu"
  | Rules o -> "rules:" ^ Opt.name o

let modes =
  [
    ("qemu", Qemu);
    ("base", Rules Opt.base);
    ("reduction", Rules Opt.reduction_only);
    ("elimination", Rules Opt.with_elimination);
    ("full", Rules Opt.full);
    ("regions", Rules Opt.with_regions);
    ("future", Rules Opt.future);
  ]

let mode_of_name s =
  List.find_map (fun (_, m) -> if mode_name m = s then Some m else None) modes

(* The degradation ladder: which engine tier a run starts on. The
   watchdog (or the external supervision layer) only ever moves a
   machine down the ladder; the floor is sticky across runs and rides
   in snapshots so a restored machine never silently re-trusts an
   engine tier it already demoted. *)
type rung = Rung_rules | Rung_baseline | Rung_interp

let rung_name = function
  | Rung_rules -> "rules"
  | Rung_baseline -> "baseline"
  | Rung_interp -> "interpreter"

let rung_level = function Rung_rules -> 0 | Rung_baseline -> 1 | Rung_interp -> 2

let rung_of_level = function
  | 0 -> Rung_rules
  | 1 -> Rung_baseline
  | 2 -> Rung_interp
  | n -> raise (Snapshot.Corrupt (Printf.sprintf "degrade: bad rung %d" n))

let lowest_rung a b = if rung_level a >= rung_level b then a else b

let degrade = function
  | Rung_rules -> Some Rung_baseline
  | Rung_baseline -> Some Rung_interp
  | Rung_interp -> None

type tb_record = {
  r_id : int;
  r_pc : int;
  r_priv : bool;
  r_mmu : bool;
  r_override : int option;
  r_injected : [ `None | `Rule_corrupt | `Livelock ];
  r_hot : int;
  r_meta : (bool array * Flagconv.t option) option;
}

type region_record = {
  rg_id : int;
  rg_hot : int;
  rg_members : int array;  (* plain record indices, trace order *)
  rg_meta : (bool array * Flagconv.t option) option;
}

(* A decoded cache section. Link targets live in a combined index
   space: plain records are 0..n-1, regions n, n+1, ... in recipe
   order; -1 is an empty slot. *)
type recipes = {
  records : tb_record array;
  links : int array array;
  regions : region_record array;
  region_links : int array array;
}

(* Warm-boot bookkeeping for recipes loaded from a persistent depot.
   Indices 0..n-1 are plain records, n.. the superblock recipes (the
   same combined index space the chain graph uses). A recipe is
   [installed] once it has been replayed into the live cache for the
   current cache generation, [dead] once it can never install in this
   generation (quarantined, or its guest bytes never matched), and
   pending otherwise — pending recipes are retried in waves, each
   triggered by the first cache miss on one of them. *)
type depot_state = {
  dp_recipes : recipes;
  dp_srcsum : int array;  (* per plain record, install fidelity guard *)
  dp_keys : (int * bool * bool, int) Hashtbl.t;
      (* (pc, privileged, mmu_on) -> plain record index *)
  dp_skip : bool array;  (* quarantined at install time; never replayed *)
  dp_installed : Tb.t option array;
  dp_dead : bool array;
  mutable dp_generation : int;
  mutable dp_installed_count : int;
  dp_served : (int, Tb.t) Hashtbl.t;
      (* TB id -> the TB a wave installed in this generation; poison
         attribution compares physically, so a cold TB at the same PC
         (another regime, or after SMC killed the recipe) never counts *)
  mutable dp_poisoned : int list;
      (* depot-served PCs whose TB shadow verification invalidated *)
}

type t = {
  mode : mode;
  rt : Runtime.t;
  cache : Tb.Cache.t;
  rule_translator : Translator_rule.t option;
  ruleset : Repro_rules.Ruleset.t option;
  mutable journal : Journal.t;
  mutable pending_resume : Engine.resume option;
  mutable last_checkpoint : Snapshot.t option;
  mutable stop_checkpoint : Snapshot.t option;
  mutable last_capture : Snapshot.t option;
  mutable rung_floor : rung;
  mutable depot : depot_state option;
}

let create ?ram_kib ?ruleset ?tb_capacity ?inject ?shadow_depth
    ?quarantine_threshold ?trace ?ledger ?scope mode =
  let rt = Runtime.create ?ram_kib ?inject ?trace ?ledger ?scope () in
  Helpers.install rt;
  (* Observational wiring: devices and the injector share the
     runtime's event ring. *)
  Devices.Timer.set_trace rt.Runtime.bus.Repro_machine.Bus.timer trace;
  (match inject with Some inj -> Fi.set_trace inj trace | None -> ());
  let cache = Tb.Cache.create ?capacity:tb_capacity () in
  rt.Runtime.is_code_page <- Tb.Cache.is_code_page cache;
  let ruleset, rule_translator =
    match mode with
    | Qemu -> (None, None)
    | Rules opt ->
      let ruleset =
        match ruleset with Some r -> r | None -> Repro_rules.Builtin.ruleset ()
      in
      ( Some ruleset,
        Some
          (Translator_rule.create ~opt ~ruleset ?shadow_depth
             ?quarantine_threshold rt) )
  in
  {
    mode;
    rt;
    cache;
    rule_translator;
    ruleset;
    journal = Journal.create ();
    pending_resume = None;
    last_checkpoint = None;
    stop_checkpoint = None;
    last_capture = None;
    rung_floor = (match mode with Qemu -> Rung_baseline | Rules _ -> Rung_rules);
    depot = None;
  }

let natural_rung t =
  match t.mode with Qemu -> Rung_baseline | Rules _ -> Rung_rules

let rung_floor t = t.rung_floor

let set_rung_floor t rung = t.rung_floor <- lowest_rung t.rung_floor rung

let degrade_floor t =
  match degrade t.rung_floor with
  | Some next ->
    t.rung_floor <- next;
    true
  | None -> false

let load_image t origin words = Runtime.load_image t.rt origin words
let stats t = Runtime.stats t.rt

(* ---------- translation-quality observatory ---------- *)

let coverage_rules t =
  match t.ruleset with
  | Some rs ->
    List.map
      (fun (r : Repro_rules.Rule.t) -> (r.Repro_rules.Rule.id, r.Repro_rules.Rule.name))
      (Ruleset.rules rs)
  | None -> []

let coverage_report t =
  Repro_covscope.Report.make ?static:t.rt.Runtime.cov_static ~rules:(coverage_rules t)
    (Repro_covscope.Report.of_stats (Runtime.stats t.rt))
let cpu t = t.rt.Runtime.cpu
let journal t = t.journal
let uart_output t = Devices.Uart.output t.rt.Runtime.bus.Repro_machine.Bus.uart

let set_timer t ~period =
  let timer = t.rt.Runtime.bus.Repro_machine.Bus.timer in
  Devices.Timer.write timer 0x4 period;
  Devices.Timer.write timer 0x0 1

(* ---- snapshot encoding ---- *)

let int_of_injected = function `None -> 0 | `Rule_corrupt -> 1 | `Livelock -> 2

let injected_of_int = function
  | 0 -> `None
  | 1 -> `Rule_corrupt
  | 2 -> `Livelock
  | n -> raise (Snapshot.Corrupt (Printf.sprintf "cache: bad injection kind %d" n))

let int_of_conv = function
  | None -> 0
  | Some Flagconv.Add_like -> 1
  | Some Flagconv.Sub_like -> 2
  | Some Flagconv.Logic_like -> 3
  | Some Flagconv.Canonical -> 4

let conv_of_int = function
  | 0 -> None
  | 1 -> Some Flagconv.Add_like
  | 2 -> Some Flagconv.Sub_like
  | 3 -> Some Flagconv.Logic_like
  | 4 -> Some Flagconv.Canonical
  | n -> raise (Snapshot.Corrupt (Printf.sprintf "cache: bad flag convention %d" n))

(* One record per live plain TB ([tbs], from [Tb.Cache.by_id]); then the
   plain chain graph; then one recipe per installed superblock (its
   constituents as record indices); then the region chain graph, all
   in the combined index space of [recipes]. The host code itself is not
   serialized: every translator input it depends on — guest memory,
   the SMC length override, the injected corruption, the accumulated
   link-time meta, the constituent traces — is recorded, so restore
   re-translates (and re-fuses) to bit-identical programs (live TBs
   always postdate the last quarantine/blacklist change because every
   health change flushes the cache). *)
let encode_cache t tbs =
  let regions = Tb.Cache.regions_by_id t.cache in
  let index_of_id = Hashtbl.create 64 in
  Array.iteri (fun i (tb : Tb.t) -> Hashtbl.replace index_of_id tb.Tb.id i) tbs;
  Array.iteri
    (fun i (tb : Tb.t) ->
      Hashtbl.replace index_of_id tb.Tb.id (Array.length tbs + i))
    regions;
  let b = Snapshot.Enc.create () in
  let enc_meta (tb : Tb.t) =
    match t.rule_translator with
    | None -> Snapshot.Enc.bool b false
    | Some tr -> (
      match Translator_rule.cache_meta tr tb with
      | None -> Snapshot.Enc.bool b false
      | Some (elide, conv) ->
        Snapshot.Enc.bool b true;
        Snapshot.Enc.int b (Array.length elide);
        Array.iter (Snapshot.Enc.bool b) elide;
        Snapshot.Enc.int b (int_of_conv conv))
  in
  let enc_links (tb : Tb.t) =
    Snapshot.Enc.int b (Array.length tb.Tb.links);
    Array.iter
      (fun succ ->
        Snapshot.Enc.int b
          (match succ with
          | None -> -1
          | Some (s : Tb.t) -> Hashtbl.find index_of_id s.Tb.id))
      tb.Tb.links
  in
  Snapshot.Enc.int b (Array.length tbs);
  Array.iter
    (fun (tb : Tb.t) ->
      Snapshot.Enc.int b tb.Tb.id;
      Snapshot.Enc.int b tb.Tb.guest_pc;
      Snapshot.Enc.bool b tb.Tb.privileged;
      Snapshot.Enc.bool b tb.Tb.mmu_on;
      Snapshot.Enc.int b
        (match tb.Tb.translated_override with None -> -1 | Some n -> n);
      Snapshot.Enc.int b (int_of_injected tb.Tb.injected);
      Snapshot.Enc.int b tb.Tb.hot;
      enc_meta tb)
    tbs;
  Array.iter enc_links tbs;
  Snapshot.Enc.int b (Array.length regions);
  Array.iter
    (fun (tb : Tb.t) ->
      Snapshot.Enc.int b tb.Tb.id;
      Snapshot.Enc.int b tb.Tb.hot;
      Snapshot.Enc.int b (Array.length tb.Tb.region_ids);
      Array.iter
        (fun cid ->
          match Hashtbl.find_opt index_of_id cid with
          | Some i when i < Array.length tbs -> Snapshot.Enc.int b i
          | _ ->
            raise
              (Snapshot.Corrupt
                 (Printf.sprintf
                    "cache: region %d references a dead constituent %d" tb.Tb.id
                    cid)))
        tb.Tb.region_ids;
      enc_meta tb)
    regions;
  Array.iter enc_links regions;
  Snapshot.Enc.contents b

let decode_cache payload =
  let d = Snapshot.Dec.of_string ~name:"cache" payload in
  let dec_meta () =
    if Snapshot.Dec.bool d then begin
      let len = Snapshot.Dec.int d in
      let elide = Array.init len (fun _ -> Snapshot.Dec.bool d) in
      let conv = conv_of_int (Snapshot.Dec.int d) in
      Some (elide, conv)
    end
    else None
  in
  let dec_links n =
    Array.init n (fun _ ->
        let slots = Snapshot.Dec.int d in
        Array.init slots (fun _ -> Snapshot.Dec.int d))
  in
  let n = Snapshot.Dec.int d in
  if n < 0 then raise (Snapshot.Corrupt "cache: negative record count");
  let records =
    Array.init n (fun _ ->
        let r_id = Snapshot.Dec.int d in
        let r_pc = Snapshot.Dec.int d in
        let r_priv = Snapshot.Dec.bool d in
        let r_mmu = Snapshot.Dec.bool d in
        let ov = Snapshot.Dec.int d in
        let r_override = if ov < 0 then None else Some ov in
        let r_injected = injected_of_int (Snapshot.Dec.int d) in
        let r_hot = Snapshot.Dec.int d in
        let r_meta = dec_meta () in
        { r_id; r_pc; r_priv; r_mmu; r_override; r_injected; r_hot; r_meta })
  in
  let links = dec_links n in
  let m = Snapshot.Dec.int d in
  if m < 0 then raise (Snapshot.Corrupt "cache: negative region count");
  let regions =
    Array.init m (fun _ ->
        let rg_id = Snapshot.Dec.int d in
        let rg_hot = Snapshot.Dec.int d in
        let members = Snapshot.Dec.int d in
        if members < 2 then
          raise (Snapshot.Corrupt "cache: region with fewer than two chunks");
        let rg_members =
          Array.init members (fun _ ->
              let i = Snapshot.Dec.int d in
              if i < 0 || i >= n then
                raise (Snapshot.Corrupt "cache: region member out of range");
              i)
        in
        let rg_meta = dec_meta () in
        { rg_id; rg_hot; rg_members; rg_meta })
  in
  let region_links = dec_links m in
  if not (Snapshot.Dec.finished d) then
    raise (Snapshot.Corrupt "cache: trailing bytes");
  let valid = Array.for_all (Array.for_all (fun s -> s >= -1 && s < n + m)) in
  if not (valid links && valid region_links) then
    raise (Snapshot.Corrupt "cache: link to a nonexistent record");
  { records; links; regions; region_links }

let encode_translator tr rs =
  let saved = Translator_rule.save_state tr in
  let strikes, quarantined = Ruleset.export_health rs in
  let b = Snapshot.Enc.create () in
  let ints l = Snapshot.Enc.int_array b (Array.of_list l) in
  ints saved.Translator_rule.s_blacklist;
  Snapshot.Enc.int_pairs b saved.Translator_rule.s_shadow_done;
  Snapshot.Enc.int_pairs b saved.Translator_rule.s_shadow_tries;
  Snapshot.Enc.int b saved.Translator_rule.s_rule_covered;
  Snapshot.Enc.int b saved.Translator_rule.s_fallback;
  Snapshot.Enc.int b saved.Translator_rule.s_inter_tb_elisions;
  Snapshot.Enc.int_pairs b strikes;
  ints quarantined;
  Snapshot.Enc.contents b

let decode_translator payload =
  let d = Snapshot.Dec.of_string ~name:"translator" payload in
  let ints () = Array.to_list (Snapshot.Dec.int_array d) in
  let s_blacklist = ints () in
  let s_shadow_done = Snapshot.Dec.int_pairs d in
  let s_shadow_tries = Snapshot.Dec.int_pairs d in
  let s_rule_covered = Snapshot.Dec.int d in
  let s_fallback = Snapshot.Dec.int d in
  let s_inter_tb_elisions = Snapshot.Dec.int d in
  let strikes = Snapshot.Dec.int_pairs d in
  let quarantined = ints () in
  if not (Snapshot.Dec.finished d) then
    raise (Snapshot.Corrupt "translator: trailing bytes");
  ( {
      Translator_rule.s_blacklist;
      s_shadow_done;
      s_shadow_tries;
      s_rule_covered;
      s_fallback;
      s_inter_tb_elisions;
    },
    strikes,
    quarantined )

let encode_resume (r : Engine.resume) =
  let b = Snapshot.Enc.create () in
  Snapshot.Enc.int b r.Engine.rpc;
  Snapshot.Enc.bool b r.Engine.rprivileged;
  Snapshot.Enc.bool b r.Engine.rmmu_on;
  Snapshot.Enc.bool b r.Engine.rneeds_enter;
  Snapshot.Enc.contents b

let decode_resume payload =
  let d = Snapshot.Dec.of_string ~name:"resume" payload in
  let rpc = Snapshot.Dec.int d in
  let rprivileged = Snapshot.Dec.bool d in
  let rmmu_on = Snapshot.Dec.bool d in
  let rneeds_enter = Snapshot.Dec.bool d in
  if not (Snapshot.Dec.finished d) then
    raise (Snapshot.Corrupt "resume: trailing bytes");
  { Engine.rpc; rprivileged; rmmu_on; rneeds_enter }

let capture ?resume t =
  (* The trace ring and the coordination ledger are deliberately NOT
     snapshot sections: they are observational accumulators over the
     whole process lifetime, and guest-visible state must round-trip
     bit-identically whether or not they are attached. *)
  (match t.rt.Runtime.trace with
  | Some tr -> Trace.emit tr Trace.Snapshot "capture"
  | None -> ());
  let prev = t.last_capture in
  let snap = Snapshot.create () in
  let add = Snapshot.add ?prev snap in
  add "mode" (mode_name t.mode);
  Snapshot.capture_machine ?prev t.rt snap;
  add "cache" (encode_cache t (Tb.Cache.by_id t.cache));
  let ctl = Snapshot.Enc.create () in
  Snapshot.Enc.int ctl (Tb.Cache.full_flushes t.cache);
  Snapshot.Enc.int ctl (Tb.Cache.ids t.cache);
  add "cachectl" (Snapshot.Enc.contents ctl);
  (match (t.rule_translator, t.ruleset) with
  | Some tr, Some rs -> add "translator" (encode_translator tr rs)
  | _ -> ());
  (match resume with Some r -> add "resume" (encode_resume r) | None -> ());
  let dg = Snapshot.Enc.create () in
  Snapshot.Enc.int dg (rung_level t.rung_floor);
  add "degrade" (Snapshot.Enc.contents dg);
  add "journal" (Journal.to_string t.journal);
  t.last_capture <- Some snap;
  snap

let snapshot t =
  match t.stop_checkpoint with Some s -> s | None -> capture t

(* ---- restore ---- *)

(* Demotion-state merge policy: health only ever ratchets down.
   Blacklists and quarantine sets take the union, per-rule strikes the
   maximum — shared by snapshot restore and depot install. *)
let union_int l1 l2 = List.sort_uniq compare (l1 @ l2)

let max_strikes a b =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (id, n) ->
      match Hashtbl.find_opt tbl id with
      | Some m when m >= n -> ()
      | _ -> Hashtbl.replace tbl id n)
    (a @ b);
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) tbl [] |> List.sort compare

(* Merge demotions into the translator's and ruleset's health; [base]
   (default: the translator's current state) supplies the translator
   state the blacklist merge does not cover. *)
let ratchet_health ?base tr rs ~blacklist ~strikes ~quarantined =
  let cur = Translator_rule.save_state tr in
  let cur_strikes, cur_quarantined = Ruleset.export_health rs in
  Translator_rule.restore_state tr
    {
      (Option.value base ~default:cur) with
      Translator_rule.s_blacklist = union_int blacklist cur.Translator_rule.s_blacklist;
    };
  Ruleset.restore_health rs
    ~strikes:(max_strikes strikes cur_strikes)
    ~quarantined:(union_int quarantined cur_quarantined)

(* Snapshot cache rebuilds and depot install waves re-run translations
   made elsewhere (by the checkpointed machine, or by the run that
   captured the depot), spliced into a machine that must not notice.
   [retranslating] brackets that work:
   - both translation sinks are detached, since recording the re-run's
     static provenance or rule-template sites would double-count;
   - exactly the state translation can touch is saved and put back.
     Each record forces its mode and MMU bit into the mirror CPU and
     sets the engine-transient runtime fields; fetches draw from the
     injector (bus reads, page-walk corruption); blacklist fallbacks
     and superblock fusion charge statistics; the translator bumps its
     counters. Translation reads guest memory and page tables but
     writes neither, and leaves env, host registers, TLB and devices
     alone, so none of those is copied. *)
let retranslating t f =
  let rt = t.rt in
  let ledger = rt.Runtime.ledger and cov_static = rt.Runtime.cov_static in
  let cpu = Cpu.save_words rt.Runtime.cpu
  and stats = Stats.to_array (Runtime.stats rt)
  and inject = Option.map Fi.export rt.Runtime.inject
  and pcw = rt.Runtime.pending_code_write
  and scw = rt.Runtime.suppress_code_write
  and tbov = rt.Runtime.tb_override
  and cov = rt.Runtime.corrupt_override
  and fps = rt.Runtime.fault_producers
  and counters = Option.map Translator_rule.save_state t.rule_translator in
  rt.Runtime.ledger <- None;
  rt.Runtime.cov_static <- None;
  Fun.protect f ~finally:(fun () ->
      rt.Runtime.ledger <- ledger;
      rt.Runtime.cov_static <- cov_static;
      Cpu.load_words rt.Runtime.cpu cpu;
      Stats.load_array (Runtime.stats rt) stats;
      (match (rt.Runtime.inject, inject) with
      | Some inj, Some words -> Fi.import inj words
      | _ -> ());
      rt.Runtime.pending_code_write <- pcw;
      rt.Runtime.suppress_code_write <- scw;
      rt.Runtime.tb_override <- tbov;
      rt.Runtime.corrupt_override <- cov;
      rt.Runtime.fault_producers <- fps;
      match (t.rule_translator, counters) with
      | Some tr, Some s -> Translator_rule.restore_counters tr s
      | _ -> ())

(* The translator of the machine's natural rung. *)
let natural_translate t =
  match t.rule_translator with
  | Some tr -> fun rt cache ~pc -> Translator_rule.translate tr rt cache ~pc
  | None -> Repro_tcg.Translator_qemu.translate

(* Install-time fidelity guard: a depot recipe is only replayed when
   the guest code it came from is what this machine's memory holds at
   install time. The checksum is FNV-1a over the little-endian
   re-encoding of every decoded instruction, so it covers the
   decoder's view: [Encode.encode] is total and injective on decoder
   output. *)
let guest_checksum (tb : Tb.t) =
  let step h byte = (h lxor byte) * 0x01000193 land 0xFFFF_FFFF in
  Array.fold_left
    (fun h i ->
      let w = Repro_arm.Encode.encode i in
      step
        (step (step (step h (w land 0xFF)) ((w lsr 8) land 0xFF))
           ((w lsr 16) land 0xFF))
        (w lsr 24))
    0x811c9dc5 tb.Tb.guest_insns

(* How [install] replays a recipe set; its caller picks one.
   - [Exact] (snapshot restore): flush first, give every TB its
     captured id, and raise [Snapshot.Corrupt] when a plain record
     does not translate or a region does not fuse.
   - [Waves] (a depot install wave): install a recipe only when its
     re-translation matches its guest-code checksum, adopt a TB the
     engine already translated, and leave the rest pending or dead in
     the depot's bookkeeping. *)
type policy = Exact | Waves of depot_state

(* Replay a recipe set into the live cache. Each pending plain record
   re-translates under its recorded regime (privilege, MMU, SMC length
   override, injected corruption), takes its captured hotness and
   link-time meta, and has its code write-protected as after a cold
   translation. A region re-fuses from its recorded constituent trace
   once all its members are installed: the fused emission reads only
   the constituents' scheduled bodies, so with its own meta re-applied
   it is bit-identical to the captured one. A region is skipped, its
   members staying installed, when a member's PC is blacklisted (live
   formation never fuses across one, and restore merges a live
   blacklist that may have grown since the capture) or when the live
   engine already fused a region at that head. Last, the chain graph
   fills empty link slots between installed entries; links the live
   engine made stand. *)
let install t policy rc =
  let rt = t.rt in
  let n = Array.length rc.records in
  let exact = match policy with Exact -> true | Waves _ -> false in
  let installed, dead =
    match policy with
    | Exact ->
      let k = n + Array.length rc.regions in
      (Array.make k None, Array.make k false)
    | Waves dp -> (dp.dp_installed, dp.dp_dead)
  in
  let pending k = Option.is_none installed.(k) && not dead.(k) in
  let corrupt fmt = Printf.ksprintf (fun s -> raise (Snapshot.Corrupt s)) fmt in
  let enter k (tb : Tb.t) ~served =
    installed.(k) <- Some tb;
    match policy with
    | Exact -> ()
    | Waves dp ->
      dp.dp_installed_count <- dp.dp_installed_count + 1;
      if served then Hashtbl.replace dp.dp_served tb.Tb.id tb
  in
  let replayed k (tb : Tb.t) ~hot ~meta =
    tb.Tb.hot <- hot;
    (match (t.rule_translator, meta) with
    | Some tr, Some (elide, entry_conv) ->
      Translator_rule.restore_cache_meta tr tb ~elide ~entry_conv
    | _ -> ());
    enter k tb ~served:true
  in
  if Array.length rc.regions > 0 && t.rule_translator = None then
    corrupt "cache: region records for a qemu-mode machine";
  retranslating t @@ fun () ->
  let translate = natural_translate t in
  if exact then Tb.Cache.flush t.cache;
  Array.iteri
    (fun i r ->
      if pending i then
        match
          if exact then None
          else Tb.Cache.find_plain t.cache ~pc:r.r_pc ~privileged:r.r_priv ~mmu_on:r.r_mmu
        with
        | Some tb ->
          (* the engine already translated this PC cold; adopt it so
             regions and links over it can still install. Its meta
             evolves through the live link hook, and it was never
             served, so it is never the depot's to poison. *)
          enter i tb ~served:false
        | None -> (
          Cpu.set_mode rt.Runtime.cpu (if r.r_priv then Cpu.Supervisor else Cpu.User);
          Cpu.set_mmu_enabled rt.Runtime.cpu r.r_mmu;
          rt.Runtime.tb_override <- r.r_override;
          rt.Runtime.corrupt_override <- Some r.r_injected;
          if exact then Tb.Cache.set_ids t.cache (r.r_id - 1);
          match (translate rt t.cache ~pc:r.r_pc, policy) with
          | Ok tb, Waves dp when guest_checksum tb <> dp.dp_srcsum.(i) -> ()
          | Ok tb, _ ->
            Tb.Cache.add_exact t.cache tb;
            let tlb = rt.Runtime.ctx.Runtime.Exec.tlb in
            Tlb.clear_write_tag tlb tb.Tb.guest_pc;
            Tlb.clear_write_tag tlb (tb.Tb.guest_pc + (4 * tb.Tb.guest_len) - 4);
            replayed i tb ~hot:r.r_hot ~meta:r.r_meta
          | Error _, Exact ->
            corrupt "cache rebuild: TB at %#x is no longer translatable" r.r_pc
          | Error _, Waves _ -> ()))
    rc.records;
  Option.iter
    (fun tr ->
      Array.iteri
        (fun j rg ->
          let k = n + j in
          let members = Array.map (fun i -> installed.(i)) rg.rg_members in
          if pending k && Array.for_all Option.is_some members then begin
            let head = rc.records.(rg.rg_members.(0)) in
            let fused_live =
              match
                Tb.Cache.find t.cache ~pc:head.r_pc ~privileged:head.r_priv
                  ~mmu_on:head.r_mmu
              with
              | Some tb -> Tb.is_region tb
              | None -> false
            in
            if
              fused_live
              || Array.exists
                   (fun i -> Translator_rule.blacklisted tr rc.records.(i).r_pc)
                   rg.rg_members
            then dead.(k) <- true
            else begin
              if exact then Tb.Cache.set_ids t.cache (rg.rg_id - 1);
              let trace = Array.to_list (Array.map Option.get members) in
              match Translator_rule.fuse_trace tr rt t.cache ~trace with
              | Some region -> replayed k region ~hot:rg.rg_hot ~meta:rg.rg_meta
              | None when exact ->
                corrupt "cache rebuild: region %d is no longer fusable" rg.rg_id
              | None -> dead.(k) <- true
            end
          end)
        rc.regions)
    t.rule_translator;
  let fill base table =
    Array.iteri
      (fun i slots ->
        Option.iter
          (fun (tb : Tb.t) ->
            Array.iteri
              (fun slot succ ->
                if
                  succ >= 0
                  && slot < Array.length tb.Tb.links
                  && Option.is_none tb.Tb.links.(slot)
                then tb.Tb.links.(slot) <- installed.(succ))
              slots)
          installed.(base + i))
      table
  in
  fill 0 rc.links;
  fill n rc.region_links

let restore ?(rebuild = true) t snap =
  (match t.rt.Runtime.trace with
  | Some tr ->
    Trace.emit tr ~a:(if rebuild then 1 else 0) Trace.Snapshot "restore"
  | None -> ());
  (match Snapshot.find_opt snap "mode" with
  | Some m when m = mode_name t.mode -> ()
  | Some m ->
    raise
      (Snapshot.Corrupt
         (Printf.sprintf "snapshot was taken under mode %s, this machine is %s" m
            (mode_name t.mode)))
  | None -> raise (Snapshot.Corrupt "missing section mode"));
  Snapshot.restore_machine t.rt snap;
  (* Translator tables and rule health install before the cache
     rebuild: translation consults the blacklist and the quarantine
     set, and every health change flushed the captured cache, so the
     restored final health state is the one every live TB was
     translated under.

     Demotion state merges instead of replacing: a machine that
     quarantined a rule, blacklisted a PC or degraded its engine rung
     after the snapshot was taken must not re-trust it just because an
     older capture was optimistic. Health only ever ratchets down —
     blacklist and quarantine take the union, strikes the per-rule
     maximum, the rung floor the lower rung. (Restoring into a fresh
     machine merges with empty state, i.e. installs the snapshot's
     health verbatim, so save/restore bit-identity is unaffected.)
     Shadow-verification progress, by contrast, is taken from the
     snapshot as-is: rolling it back only means re-verifying, which is
     always sound. *)
  (match (t.rule_translator, t.ruleset, Snapshot.find_opt snap "translator") with
  | Some tr, Some rs, Some payload ->
    let saved, strikes, quarantined = decode_translator payload in
    ratchet_health tr rs ~base:saved ~blacklist:saved.Translator_rule.s_blacklist ~strikes
      ~quarantined
  | None, _, None -> ()
  | Some _, _, None -> raise (Snapshot.Corrupt "missing section translator")
  | _ -> raise (Snapshot.Corrupt "translator section in a qemu-mode snapshot"));
  (match Snapshot.find_opt snap "degrade" with
  | Some payload ->
    let d = Snapshot.Dec.of_string ~name:"degrade" payload in
    let floor = rung_of_level (Snapshot.Dec.int d) in
    if not (Snapshot.Dec.finished d) then
      raise (Snapshot.Corrupt "degrade: trailing bytes");
    t.rung_floor <- lowest_rung t.rung_floor floor
  | None -> ());
  (* The rebuild re-translates the records with the mode's own
     translator, which is only faithful while the machine still runs on
     its natural rung. Once the floor has ratcheted below it (a sticky
     watchdog demotion, here or recorded in the snapshot), the captured
     TBs and the engine that will execute them disagree on host-state
     conventions — so a demoted machine flushes instead and lets the
     degraded engine retranslate on demand, which is guest-invariant. *)
  if rebuild && t.rung_floor = natural_rung t then
    install t Exact (decode_cache (Snapshot.find snap "cache"))
  else Tb.Cache.flush t.cache;
  (* The install's [retranslating] put back the stats, injector state
     and translator counters its translations touched; the
     write-protect tags it set give way to the captured TLB. *)
  let ctl = Snapshot.Dec.of_string ~name:"cachectl" (Snapshot.find snap "cachectl") in
  Tb.Cache.set_full_flushes t.cache (Snapshot.Dec.int ctl);
  Tb.Cache.set_ids t.cache (Snapshot.Dec.int ctl);
  let tlb = Snapshot.Dec.of_string ~name:"tlb" (Snapshot.find snap "tlb") in
  Tlb.restore t.rt.Runtime.ctx.Runtime.Exec.tlb (Snapshot.Dec.int_array tlb);
  t.pending_resume <-
    (match Snapshot.find_opt snap "resume" with
    | Some p -> Some (decode_resume p)
    | None -> None);
  t.journal <-
    (match Snapshot.find_opt snap "journal" with
    | Some j -> Journal.of_string j
    | None -> Journal.create ());
  t.last_checkpoint <- None;
  t.stop_checkpoint <- None;
  t.last_capture <- Some snap

(* ---- snapshot readers for front ends ---- *)

let snapshot_mode snap =
  let m = Snapshot.find snap "mode" in
  match mode_of_name m with
  | Some mode -> mode
  | None -> raise (Snapshot.Corrupt (Printf.sprintf "unknown mode %s" m))

let snapshot_injector snap =
  match Snapshot.find_opt snap "inject" with
  | None -> None
  | Some payload ->
    let d = Snapshot.Dec.of_string ~name:"inject" payload in
    Some (Fi.of_export (Snapshot.Dec.i64_array d))

let snapshot_ram_kib snap =
  Repro_common.Pages.length (Snapshot.ram_pages snap) / 1024

let snapshot_clean snap =
  (* Clean = usable as a watchdog/restart rollback target: either the
     snapshot was taken outside a run (no resume section) or at an
     engine-dispatch boundary where the pending [on_enter] rebuilds all
     host-resident state ([rneeds_enter]). Mid-chain captures carry
     inter-TB host state a restarted engine would not re-establish. *)
  match Snapshot.find_opt snap "resume" with
  | None -> true
  | Some p -> (decode_resume p).Engine.rneeds_enter

(* ---- the persistent AOT code depot ---- *)

let depot_err section fmt =
  Printf.ksprintf
    (fun reason -> raise (Depot.Depot_error { section; reason }))
    fmt

(* Decode a depot payload, reporting a malformed one against [section]. *)
let depot_decode section decode payload =
  try decode payload with
  | Snapshot.Corrupt reason | Invalid_argument reason -> depot_err section "%s" reason

(* The depot's health section carries only the durable demotions —
   PC blacklist, per-rule strikes, quarantined rules. Shadow
   verification progress deliberately stays out: depot-installed TBs
   re-verify on every warm boot, and that re-verification is the
   sensor the depot's self-repair loop (poison write-back) runs on. *)
let encode_depot_health ~blacklist ~strikes ~quarantined =
  let b = Snapshot.Enc.create () in
  Snapshot.Enc.int_array b (Array.of_list blacklist);
  Snapshot.Enc.int_pairs b strikes;
  Snapshot.Enc.int_array b (Array.of_list quarantined);
  Snapshot.Enc.contents b

let decode_depot_health payload =
  let d = Snapshot.Dec.of_string ~name:"health" payload in
  let blacklist = Array.to_list (Snapshot.Dec.int_array d) in
  let strikes = Snapshot.Dec.int_pairs d in
  let quarantined = Array.to_list (Snapshot.Dec.int_array d) in
  if not (Snapshot.Dec.finished d) then
    raise (Snapshot.Corrupt "health: trailing bytes");
  (blacklist, strikes, quarantined)

let depot_compat t =
  {
    Depot.c_mode = mode_name t.mode;
    c_rules_digest =
      (match t.ruleset with Some rs -> Depot.ruleset_digest rs | None -> 0);
    c_hot_threshold = Engine.hot_threshold;
  }

let depot_capture t =
  let natural = natural_rung t in
  if t.rung_floor <> natural then
    depot_err "compat"
      "machine floor is the %s rung; a depot captures its natural %s engine's \
       cache"
      (rung_name t.rung_floor) (rung_name natural);
  let rules =
    match t.ruleset with
    | Some rs -> Repro_rules.Serialize.save rs
    | None -> ""
  in
  let health =
    match (t.rule_translator, t.ruleset) with
    | Some tr, Some rs ->
      let saved = Translator_rule.save_state tr in
      let strikes, quarantined = Ruleset.export_health rs in
      encode_depot_health ~blacklist:saved.Translator_rule.s_blacklist ~strikes
        ~quarantined
    | _ -> encode_depot_health ~blacklist:[] ~strikes:[] ~quarantined:[]
  in
  let tbs = Tb.Cache.by_id t.cache in
  Depot.create ~compat:(depot_compat t) ~rules ~cache:(encode_cache t tbs)
    ~srcsum:(Array.map guest_checksum tbs) ~health

(* The engine-level payloads, decoded the way an install needs them:
   the recipes, one guest-code checksum per plain recipe, and the
   durable health. *)
let depot_payloads depot =
  let rc = depot_decode "cache" decode_cache (Depot.cache_payload depot) in
  let srcsum = Depot.srcsum depot in
  if Array.length srcsum <> Array.length rc.records then
    depot_err "srcsum" "%d checksums for %d recipes" (Array.length srcsum)
      (Array.length rc.records);
  (rc, srcsum, depot_decode "health" decode_depot_health (Depot.health depot))

(* One install wave: replay every still-pending recipe against guest
   memory as it stands right now. The wave is machine-neutral:
   [retranslating] puts back everything translation touches, so a warm
   run's guest-visible behaviour is the cold run's. The only lasting
   machine change is the write-protect TLB tags on installed code,
   exactly as cold translation sets them. Recipes whose guest bytes do
   not match stay pending: the guest has not built that world yet (page
   tables before the MMU turns on, code it relocates later); the first
   miss in the new regime triggers the next wave. This is every wave's
   one failure boundary: a recipe poisoned in a way the checksums
   cannot see (it decodes, then fails to replay) drops the depot
   wholesale, and the machine continues cold. *)
let depot_wave t dp =
  let failed reason =
    t.depot <- None;
    depot_err "cache" "recipe replay failed: %s" reason
  in
  try install t (Waves dp) dp.dp_recipes with
  | Snapshot.Corrupt reason | Invalid_argument reason -> failed reason
  | Not_found -> failed "Not_found"

let depot_install t depot =
  let c = Depot.compat depot in
  let here = depot_compat t in
  if c.Depot.c_mode <> here.Depot.c_mode then
    depot_err "compat" "depot built under mode %s, this machine runs %s"
      c.Depot.c_mode here.Depot.c_mode;
  if c.Depot.c_rules_digest <> here.Depot.c_rules_digest then
    depot_err "compat"
      "ruleset digest mismatch (depot %#x, machine %#x): recipes are only \
       replayable under the ruleset that learned them"
      c.Depot.c_rules_digest here.Depot.c_rules_digest;
  if c.Depot.c_hot_threshold <> here.Depot.c_hot_threshold then
    depot_err "compat" "hot threshold mismatch (depot %d, engine %d)"
      c.Depot.c_hot_threshold here.Depot.c_hot_threshold;
  let natural = natural_rung t in
  if t.rung_floor <> natural then
    depot_err "compat"
      "machine floor is the %s rung; depot recipes are translated for its \
       natural %s engine"
      (rung_name t.rung_floor) (rung_name natural);
  let rc, srcsum, (blacklist, strikes, quarantined) = depot_payloads depot in
  (* The depot's durable demotions ratchet in before any recipe is
     replayed (union/max merge, the same policy snapshot restore
     uses); the flush keeps no TB translated under the pre-merge
     health alive. *)
  Tb.Cache.flush t.cache;
  (match (t.rule_translator, t.ruleset) with
  | Some tr, Some rs -> ratchet_health tr rs ~blacklist ~strikes ~quarantined
  | _ -> ());
  let n = Array.length rc.records and m = Array.length rc.regions in
  let qpcs = Hashtbl.create 8 in
  List.iter
    (fun pc -> Hashtbl.replace qpcs pc ())
    (Depot.quarantined_pcs depot);
  let skip = Array.make (n + m) false in
  Array.iteri
    (fun i r -> if Hashtbl.mem qpcs r.r_pc then skip.(i) <- true)
    rc.records;
  Array.iteri
    (fun j rg ->
      if Array.exists (fun i -> skip.(i)) rg.rg_members then skip.(n + j) <- true)
    rc.regions;
  let keys = Hashtbl.create (2 * (n + 1)) in
  Array.iteri
    (fun i r -> Hashtbl.replace keys (r.r_pc, r.r_priv, r.r_mmu) i)
    rc.records;
  let dp =
    {
      dp_recipes = rc;
      dp_srcsum = srcsum;
      dp_keys = keys;
      dp_skip = skip;
      dp_installed = Array.make (n + m) None;
      dp_dead = Array.copy skip;
      dp_generation = Tb.Cache.generation t.cache;
      dp_installed_count = 0;
      dp_served = Hashtbl.create 64;
      dp_poisoned = [];
    }
  in
  t.depot <- Some dp;
  (* Wave 1 installs whatever current guest memory supports — at a
     cold boot, the MMU-off recipes. The rest stays pending for
     miss-triggered waves once the guest builds those worlds. *)
  depot_wave t dp;
  dp.dp_installed_count

(* Miss-triggered wave: the engine missed on (pc, regime); if that key
   is a still-pending depot recipe, run a wave and serve the result.
   A recipe that cannot install even at its own miss is dead — the
   guest memory it was recorded against no longer exists — so it never
   triggers another wave. A failed wave has dropped the depot (see
   [depot_wave]): the miss is served cold. *)
let depot_hit t ~pc =
  match t.depot with
  | None -> None
  | Some dp -> (
    let gen = Tb.Cache.generation t.cache in
    if dp.dp_generation <> gen then begin
      (* every earlier install died with the cache flush; forget them
         at the first miss after it, so none is served or kept alive *)
      Array.fill dp.dp_installed 0 (Array.length dp.dp_installed) None;
      Array.blit dp.dp_skip 0 dp.dp_dead 0 (Array.length dp.dp_skip);
      Hashtbl.reset dp.dp_served;
      dp.dp_installed_count <- 0;
      dp.dp_generation <- gen
    end;
    let rt = t.rt in
    let privileged = Runtime.privileged rt in
    let mmu_on = Cpu.mmu_enabled rt.Runtime.cpu in
    match Hashtbl.find_opt dp.dp_keys (pc, privileged, mmu_on) with
    | None -> None
    | Some i ->
      if Option.is_some dp.dp_installed.(i) || dp.dp_dead.(i) then None
      else begin
        match depot_wave t dp with
        | exception Depot.Depot_error _ -> None
        | () -> (
          match dp.dp_installed.(i) with
          | Some _ as tb -> tb
          | None ->
            dp.dp_dead.(i) <- true;
            None)
      end)

let depot_served dp (tb : Tb.t) =
  match Hashtbl.find_opt dp.dp_served tb.Tb.id with
  | Some served -> served == tb
  | None -> false

let depot_coverage t =
  match t.depot with
  | None -> (0, 0)
  | Some dp ->
    let dead =
      Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 dp.dp_dead
    in
    ( dp.dp_installed_count,
      Array.length dp.dp_installed - dp.dp_installed_count - dead )

let depot_poisoned t =
  match t.depot with
  | None -> []
  | Some dp -> List.sort compare dp.dp_poisoned

(* Structural verification without a machine: decode every engine-level
   payload the way install would. Returns (plain recipes, superblocks). *)
let depot_check depot =
  let rc, _, _ = depot_payloads depot in
  (Array.length rc.records, Array.length rc.regions)

(* Fleet write-back: fold breaker-quarantined rule ids into the depot's
   durable health. Returns true when the set grew (save warranted). *)
let depot_quarantine_rules depot ids =
  let blacklist, strikes, quarantined =
    depot_decode "health" decode_depot_health (Depot.health depot)
  in
  let merged = union_int ids quarantined in
  if List.length merged = List.length quarantined then false
  else begin
    Depot.set_health depot
      (encode_depot_health ~blacklist ~strikes ~quarantined:merged);
    true
  end

(* ---- the run loop: journal hooks, checkpoints, watchdog ---- *)

let postmortem_dump t ~reason =
  match t.last_checkpoint with
  | None -> None
  | Some cp ->
    (* a copy of the section list: the stored checkpoint stays
       reusable, and its payloads are immutable, so they are shared *)
    let dump = Snapshot.copy cp in
    Snapshot.add dump "expected" (Journal.to_string t.journal);
    Snapshot.add dump "reason" reason;
    (* Where was the time going when it died? The hot-block table is
       the first thing a post-mortem reader wants. *)
    (match t.rt.Runtime.scope with
    | Some sc ->
      Snapshot.add dump "profile" (Format.asprintf "%a" (Scope.pp_blocks ~top:10) sc)
    | None -> ());
    Some dump

let interp_translate rt cache ~pc =
  rt.Runtime.tb_override <- Some 1;
  let r = Repro_tcg.Translator_qemu.translate rt cache ~pc in
  rt.Runtime.tb_override <- None;
  r

let run ?chaining ?(max_guest_insns = max_int) ?deadline
    ?(checkpoint_every = 0) ?on_checkpoint ?(watchdog = true) ?on_postmortem t =
  (* Arm the bus injection point only now, so image loading and other
     pre-run setup are never perturbed. *)
  t.rt.Runtime.bus.Repro_machine.Bus.inject <- t.rt.Runtime.inject;
  (* Entropy-capture invariant: every stochastic decision this run can
     make (bus, MMU, engine, translator sites) must draw from the one
     injector whose PRNG cursor the snapshot captures — a second
     entropy source would make restored runs diverge silently. *)
  (match t.rt.Runtime.inject with
  | Some inj ->
    assert (
      match t.rt.Runtime.bus.Repro_machine.Bus.inject with
      | Some b -> b == inj
      | None -> false)
  | None -> ());
  let stats = Runtime.stats t.rt in
  let start = stats.Stats.guest_insns in
  t.stop_checkpoint <- None;
  (* journal hooks: MMIO reads, fired faults, delivered IRQs *)
  t.rt.Runtime.bus.Repro_machine.Bus.device_read_hook <-
    Some
      (fun paddr value ->
        Journal.record t.journal
          (Journal.Dev_read { at = stats.Stats.guest_insns; paddr; value }));
  (match t.rt.Runtime.inject with
  | Some inj ->
    Fi.set_fire_hook inj
      (Some
         (fun site ->
           Journal.record t.journal
             (Journal.Fault
                { at = stats.Stats.guest_insns; site = Fi.site_name site })))
  | None -> ());
  let on_irq pc =
    Journal.record t.journal (Journal.Irq { at = stats.Stats.guest_insns; pc })
  in
  Fun.protect
    ~finally:(fun () ->
      t.rt.Runtime.bus.Repro_machine.Bus.device_read_hook <- None;
      match t.rt.Runtime.inject with
      | Some inj -> Fi.set_fire_hook inj None
      | None -> ())
  @@ fun () ->
  let checkpointing =
    watchdog || checkpoint_every > 0 || on_checkpoint <> None
  in
  let engine_cp resume =
    (* The journal window restarts at clean checkpoints; clearing
       before the capture makes the serialized journal the
       post-checkpoint state, so a restored run and the uninterrupted
       one keep identical journals from here on. *)
    (match t.rt.Runtime.scope with
    | Some sc -> Scope.note_checkpoint sc ~at:stats.Stats.guest_insns
    | None -> ());
    if resume.Engine.rneeds_enter then Journal.clear t.journal;
    let snap = capture ~resume t in
    t.stop_checkpoint <- Some snap;
    (* Only clean engine-dispatch points serve as watchdog rollback
       targets: a mid-chain checkpoint can carry guest flags live in
       host EFLAGS under an inter-TB convention a degraded engine
       would not re-establish. *)
    if resume.Engine.rneeds_enter then t.last_checkpoint <- Some snap;
    match on_checkpoint with Some f -> f snap | None -> ()
  in
  (* The watchdog needs a rollback target before anything can livelock:
     take checkpoint zero at the starting state. *)
  if watchdog && t.last_checkpoint = None then begin
    let resume =
      match t.pending_resume with
      | Some r -> r
      | None ->
        Runtime.sync_cpu_to_env t.rt;
        Runtime.refresh_irq_pending t.rt;
        Journal.clear t.journal;
        {
          Engine.rpc = Cpu.get_pc t.rt.Runtime.cpu;
          rprivileged = Runtime.privileged t.rt;
          rmmu_on = Cpu.mmu_enabled t.rt.Runtime.cpu;
          rneeds_enter = true;
        }
    in
    t.last_checkpoint <- Some (capture ~resume t)
  end;
  let engine rung resume =
    let remaining = max_guest_insns - (stats.Stats.guest_insns - start) in
    let common translate ?link_hook ?on_enter ?on_executed ?on_hot () =
      Engine.run t.rt t.cache ~translate ?link_hook ?on_enter ?on_executed
        ?chaining ~max_guest_insns:remaining ?deadline ~checkpoint_every
        ?on_checkpoint:(if checkpointing then Some engine_cp else None)
        ?resume ~on_irq ?on_hot ()
    in
    match rung with
    | Rung_rules ->
      let tr =
        match t.rule_translator with Some tr -> tr | None -> assert false
      in
      (* Superblock fusion only under the full rules engine with the
         [regions] flag: degraded watchdog rungs replay conservatively,
         and the formation guard in [form_region] re-checks the flag. *)
      let on_hot =
        match t.mode with
        | Rules o when o.Opt.regions ->
          Some (fun tb -> Translator_rule.form_region tr t.rt t.cache tb)
        | _ -> None
      in
      common
        (fun rt cache ~pc ->
          match depot_hit t ~pc with
          | Some tb -> Ok tb
          | None -> Translator_rule.translate tr rt cache ~pc)
        ?on_hot
        ~link_hook:(fun ~pred ~slot ~succ ->
          Translator_rule.link_hook tr ~pred ~slot ~succ)
        ~on_enter:(fun tb -> Translator_rule.on_enter tr t.rt tb)
        ~on_executed:(fun tb ~outcome ~guest ->
          match Translator_rule.on_executed tr t.rt tb ~outcome ~guest with
          | `Continue -> `Continue
          | `Invalidate ->
            (* a depot-served TB failing shadow verification poisons
               its depot entry: recorded here, written back by the
               front end so the entry never reloads *)
            (match t.depot with
            | Some dp when depot_served dp tb ->
              if not (List.mem tb.Tb.guest_pc dp.dp_poisoned) then
                dp.dp_poisoned <- tb.Tb.guest_pc :: dp.dp_poisoned
            | _ -> ());
            Journal.record t.journal
              (Journal.Diverge
                 {
                   at = stats.Stats.guest_insns;
                   pc = tb.Tb.guest_pc;
                   detail = "shadow-repair";
                 });
            (match on_postmortem with
            | Some f -> (
              let reason =
                Printf.sprintf "shadow-divergence at %#x" tb.Tb.guest_pc
              in
              match postmortem_dump t ~reason with
              | Some dump -> f ~reason dump
              | None -> ())
            | None -> ());
            `Invalidate)
        ()
    | Rung_baseline ->
      let translate =
        match t.mode with
        | Qemu ->
          (* baseline is qemu-mode's natural rung: depot recipes serve
             its misses too *)
          fun rt cache ~pc -> (
            match depot_hit t ~pc with
            | Some tb -> Ok tb
            | None -> Repro_tcg.Translator_qemu.translate rt cache ~pc)
        | Rules _ -> Repro_tcg.Translator_qemu.translate
      in
      common translate ()
    | Rung_interp -> common interp_translate ()
  in
  let rec attempt rung resume =
    let res = engine rung resume in
    match res.Engine.reason with
    | `Livelock pc when watchdog -> (
      match (degrade rung, t.last_checkpoint) with
      | Some next, Some cp ->
        let reason =
          Printf.sprintf "livelock at %#x under the %s engine" pc
            (rung_name rung)
        in
        (match t.rt.Runtime.trace with
        | Some tr -> Trace.emit tr ~a:pc Trace.Watchdog "livelock"
        | None -> ());
        (match on_postmortem with
        | Some f -> (
          match postmortem_dump t ~reason with
          | Some dump -> f ~reason dump
          | None -> ())
        | None -> ());
        (* Roll back to the last clean checkpoint and re-execute under
           the next rung down. The corrupted translation is dropped
           with the rest of the cache (no rebuild); the degraded
           translator regenerates code on demand. *)
        restore ~rebuild:false t cp;
        t.last_checkpoint <- Some cp;
        (* Sticky degradation: the floor ratchets down with the rung, so
           captures taken from here on record the demotion and a restart
           from a later snapshot never re-trusts the engine that just
           livelocked. *)
        t.rung_floor <- lowest_rung t.rung_floor next;
        stats.Stats.livelocks_recovered <- stats.Stats.livelocks_recovered + 1;
        (match t.rt.Runtime.trace with
        | Some tr ->
          Trace.emit tr
            ~a:(match next with
                | Rung_rules -> 0
                | Rung_baseline -> 1
                | Rung_interp -> 2)
            Trace.Watchdog "degrade"
        | None -> ());
        let resume = t.pending_resume in
        t.pending_resume <- None;
        attempt next resume
      | _ -> res)
    | _ -> res
  in
  let first_rung = lowest_rung (natural_rung t) t.rung_floor in
  let resume = t.pending_resume in
  t.pending_resume <- None;
  let res = attempt first_rung resume in
  (match res.Engine.reason with
  | `Halted code ->
    Journal.record t.journal
      (Journal.Halt { at = stats.Stats.guest_insns; code });
    t.stop_checkpoint <- None
  | `Livelock _ -> t.stop_checkpoint <- None
  | `Deadline ->
    (* A timed-out request is discarded, not resumed: the stop point is
       arbitrary relative to the workload, so no resumable stop
       checkpoint is published. *)
    t.stop_checkpoint <- None
  | `Insn_limit -> ());
  res

(* ---- deterministic replay ---- *)

type replay_report = {
  rep_reason : string option;
  rep_expected : Journal.event list;
  rep_actual : Journal.event list;
  rep_result : Engine.result;
  rep_ok : bool;
}

let replay ?(slack = 10_000) t dump =
  restore t dump;
  let expected =
    match Snapshot.find_opt dump "expected" with
    | Some s -> Journal.events (Journal.of_string s)
    | None -> []
  in
  let reason = Snapshot.find_opt dump "reason" in
  t.journal <- Journal.create ();
  let stats = Runtime.stats t.rt in
  let budget =
    match List.rev expected with
    | last :: _ -> max 1 (Journal.at last - stats.Stats.guest_insns + slack)
    | [] -> slack
  in
  let res = run ~watchdog:false ~max_guest_insns:budget t in
  let actual = Journal.events t.journal in
  let rec is_prefix exp act =
    match (exp, act) with
    | [], _ -> true
    | e :: es, a :: rest when e = a -> is_prefix es rest
    | _ -> false
  in
  {
    rep_reason = reason;
    rep_expected = expected;
    rep_actual = actual;
    rep_result = res;
    rep_ok = is_prefix expected actual;
  }
