module Runtime = Repro_tcg.Runtime
module Engine = Repro_tcg.Engine
module Window = Repro_tcg.Window
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
module Tbcodec = Repro_snapshot.Tbcodec
module Enc = Snapshot.Enc
module Dec = Snapshot.Dec
module Depot = Repro_aotcache.Depot
module Trace = Repro_observe.Trace
module Scope = Repro_perfscope.Scope
module Ledger = Repro_perfscope.Ledger

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

(* The live code cache as a value: what a capture carries, and what
   every install puts back without translating. [f_tb] is a copy of the
   TB record as it stood (program, provenance, injected corruption and
   translator meta; its links emptied; its [hot] field is not read),
   [f_links] its chain graph in the combined index space (plain entries
   0..n-1, then the regions; -1 is an empty slot) and [f_members] a
   region's constituents as plain indices ([||] for a plain TB).
   Hotness moves with nearly every dispatch, so it lives apart, in
   [c_hot] (plain entries, then regions), and an entry outlives many
   captures. Nothing here is ever mutated, so consecutive captures
   share what did not change, and every machine the code is installed
   into shares each program and its meta. *)
type frozen = { f_tb : Tb.t; f_links : int array; f_members : int array }

type code = { c_tbs : frozen array; c_regions : frozen array; c_hot : int array }
type Snapshot.value += Code of code

(* Warm-boot bookkeeping for the code a persistent depot holds, in the
   combined index space of [dp_code]. An entry is [installed] once a
   wave put it into the live cache for the current cache generation (or
   adopted the TB the engine had already translated at its key), [dead]
   once it can never install in this generation (poisoned, stale under
   live health, or its guest code never matched), and pending otherwise
   — pending entries are retried in waves, each triggered by the first
   cache miss on one of them. *)
type depot_state = {
  dp_code : code;
  dp_keys : (int * bool * bool, int) Hashtbl.t;
      (* (pc, privileged, mmu_on) -> plain entry index *)
  dp_skip : bool array;  (* poisoned at install time; never installed *)
  dp_installed : Tb.t option array;
  dp_dead : bool array;
  mutable dp_generation : int;
  mutable dp_installed_count : int;
  dp_served : (int, Tb.t) Hashtbl.t;
      (* TB id -> the TB a wave installed in this generation; poison
         attribution compares physically, so a cold TB at the same PC
         (another regime, or after SMC killed the entry) never counts *)
  mutable dp_poisoned : int list;
      (* depot-served PCs whose TB shadow verification invalidated *)
}

type t = {
  mode : mode;
  rt : Runtime.t;
  cache : Tb.Cache.t;
  rule_translator : Translator_rule.t option;
  ruleset : Repro_rules.Ruleset.t option;
  scope : Scope.t option;
  mutable journal : Journal.t;
  mutable pending_resume : Engine.resume option;
  mutable last_checkpoint : Snapshot.t option;
  mutable stop_checkpoint : Snapshot.t option;
  mutable last_capture : Snapshot.t option;
  mutable rung_floor : rung;
  mutable depot : depot_state option;
}

let sync_tag = Stats.tag_index Repro_x86.Insn.Tag_sync

(* The engine's events in the trace ring, read off its charge windows
   in the order it closes them. A chained jump or a link leaves the TB
   that ran last, whose PC [from] keeps. *)
let trace_fold tr =
  let from = ref 0 in
  fun (w : Window.t) ->
    let tb = w.Window.tb in
    match w.Window.event with
    | Window.Entered | Dispatched -> ()
    | Ran -> from := tb.Tb.guest_pc
    | Translated ->
      Trace.emit tr ~a:tb.Tb.guest_pc ~b:tb.Tb.guest_len Trace.Exec "translate"
    | Prefetch_abort -> Trace.emit tr ~a:w.Window.pc Trace.Exec "prefetch_abort"
    | Region_formed ->
      Trace.emit tr ~a:tb.Tb.guest_pc ~b:tb.Tb.guest_len Trace.Chain "region_form"
    | Chained -> Trace.emit tr ~a:!from ~b:tb.Tb.guest_pc Trace.Chain "jump"
    | Linked -> Trace.emit tr ~a:!from ~b:tb.Tb.guest_pc Trace.Chain "link"
    | Irq_delivered ->
      Trace.emit tr ~a:w.Window.pc Trace.Irq "deliver";
      (* the window's only Sync charge is the lazy flag parse *)
      let parse = w.Window.tags.(sync_tag) in
      if parse > 0 then Trace.emit tr ~b:parse Trace.Sync "lazy_parse"
    | Smc_flush -> Trace.emit tr ~a:w.Window.pc Trace.Exec "smc_flush"

let create ?ram_kib ?ruleset ?tb_capacity ?inject ?shadow_depth
    ?quarantine_threshold ?trace ?ledger ?scope mode =
  let observer =
    match
      List.filter_map Fun.id
        [ Option.map Scope.fold scope; Option.map Ledger.fold ledger;
          Option.map trace_fold trace ]
    with
    | [] -> None
    | fold :: folds ->
      Some (List.fold_left (fun f g -> let both w = f w; g w in both) fold folds)
  in
  let rt = Runtime.create ?ram_kib ?inject ?trace ?observer () in
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
             ?quarantine_threshold ?ledger ()) )
  in
  {
    mode;
    rt;
    cache;
    rule_translator;
    ruleset;
    scope;
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
  Repro_covscope.Report.make
    ?static:(Option.map Translator_rule.rule_sites t.rule_translator)
    ~rules:(coverage_rules t)
    (Repro_covscope.Report.of_stats (Runtime.stats t.rt))
let cpu t = t.rt.Runtime.cpu
let journal t = t.journal
let uart_output t = Devices.Uart.output t.rt.Runtime.bus.Repro_machine.Bus.uart

(* ---- snapshot encoding ---- *)

(* Index of the entry with id [id] in an id-sorted array, or -1. *)
let search (a : Tb.t array) id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let m = a.(mid).Tb.id in
      if m = id then mid else if m < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* Freeze the live cache: plain TBs in id order, then regions in id
   order. An entry of [prev] (the machine's last capture or restored
   snapshot) is reused when its TB has not changed since: same id, the
   very same program, provenance and meta, the same injected
   corruption, links and members (a TB's other fields change only with
   its program). Each array of [prev] that would come out equal is
   reused, and [prev] itself when all three would. *)
let freeze_code t prev =
  let tbs = Tb.Cache.by_id t.cache and regions = Tb.Cache.regions_by_id t.cache in
  let n = Array.length tbs in
  let index (s : Tb.t) =
    match search tbs s.Tb.id with
    | -1 -> (
      match search regions s.Tb.id with -1 -> raise Not_found | j -> n + j)
    | i -> i
  in
  let link = function None -> -1 | Some s -> index s in
  let member (tb : Tb.t) cid =
    match search tbs cid with
    | -1 ->
      raise
        (Snapshot.Corrupt
           (Printf.sprintf "cache: region %d references a dead constituent %d" tb.Tb.id cid))
    | i -> i
  in
  let rec all_from i len f = i = len || (f i && all_from (i + 1) len f) in
  let unchanged (f : frozen) (tb : Tb.t) =
    let c = f.f_tb in
    c.Tb.id = tb.Tb.id
    && c.Tb.prog == tb.Tb.prog
    && c.Tb.prov == tb.Tb.prov
    && c.Tb.meta == tb.Tb.meta
    && c.Tb.injected = tb.Tb.injected
    && Array.length f.f_links = Array.length tb.Tb.links
    && all_from 0 (Array.length f.f_links) (fun s -> f.f_links.(s) = link tb.Tb.links.(s))
    && all_from 0 (Array.length f.f_members) (fun k ->
           f.f_members.(k) = member tb tb.Tb.region_ids.(k))
  in
  let freeze (tb : Tb.t) =
    {
      f_tb = { tb with Tb.links = [||] };
      f_links = Array.map link tb.Tb.links;
      f_members = Array.map (member tb) tb.Tb.region_ids;
    }
  in
  let freeze_all (live : Tb.t array) before =
    if
      Array.length live = Array.length before
      && all_from 0 (Array.length live) (fun k -> unchanged before.(k) live.(k))
    then before
    else
      (* [before] is id-sorted too, so one cursor finds each TB's entry *)
      let k = ref 0 in
      Array.map
        (fun (tb : Tb.t) ->
          while !k < Array.length before && before.(!k).f_tb.Tb.id < tb.Tb.id do
            incr k
          done;
          if !k < Array.length before && unchanged before.(!k) tb then before.(!k)
          else freeze tb)
        live
  in
  let before = Option.value prev ~default:{ c_tbs = [||]; c_regions = [||]; c_hot = [||] } in
  let c_tbs = freeze_all tbs before.c_tbs and c_regions = freeze_all regions before.c_regions in
  let hot k = if k < n then tbs.(k).Tb.hot else regions.(k - n).Tb.hot in
  let m = n + Array.length regions in
  let c_hot =
    if Array.length before.c_hot = m && all_from 0 m (fun k -> before.c_hot.(k) = hot k)
    then before.c_hot
    else Array.init m hot
  in
  match prev with
  | Some p when p.c_tbs == c_tbs && p.c_regions == c_regions && p.c_hot == c_hot -> p
  | _ -> { c_tbs; c_regions; c_hot }

(* The bytes of a code cache: its plain entries, then its regions, each
   the TB's byte form ({!Tbcodec}), hotness, links, constituents and
   translator meta. Read back, they are the captured value. *)
let encode_code code =
  Enc.encode @@ fun b ->
  let entries base a =
    Enc.nat b (Array.length a);
    Array.iteri
      (fun k f ->
        Tbcodec.enc_tb b f.f_tb;
        Enc.nat b code.c_hot.(base + k);
        Enc.array b Enc.int f.f_links;
        Enc.array b Enc.nat f.f_members;
        Translator_rule.encode_meta b f.f_tb.Tb.meta)
      a
  in
  entries 0 code.c_tbs;
  entries (Array.length code.c_tbs) code.c_regions

(* [rule] resolves meta rule ids; [None] for a qemu-mode machine, whose
   code has no meta and no regions. Every failure is [Corrupt]. *)
let decode_code ~rule payload =
  let corrupt s = raise (Snapshot.Corrupt ("cache: " ^ s)) in
  try
    let entry r =
      let tb = Tbcodec.dec_tb r in
      let hot = Dec.nat r in
      let f_links = Dec.array r Dec.int in
      let f_members = Dec.array r Dec.nat in
      let meta =
        Translator_rule.decode_meta ~rule ~slots:(Array.length tb.Tb.exits)
          ~guest:tb.Tb.guest_insns r
      in
      (hot, { f_tb = { tb with Tb.meta }; f_links; f_members })
    in
    let entries r = Dec.array r entry in
    let plain, regions = Dec.whole ~name:"cache" payload (Dec.pair entries entries) in
    let n = Array.length plain and all = Array.append plain regions in
    (* a link per exit, within the entries; a region over two or more plain ones *)
    let valid k (_, f) =
      Array.length f.f_links = Array.length f.f_tb.Tb.exits
      && Array.for_all (fun s -> s >= -1 && s < Array.length all) f.f_links
      && if k < n then f.f_members = [||]
         else
           Option.is_some rule && Array.length f.f_members >= 2
           && Array.for_all (fun i -> i < n) f.f_members
    in
    if not (Array.for_all Fun.id (Array.mapi valid all)) then corrupt "link or member out of range";
    { c_tbs = Array.map snd plain; c_regions = Array.map snd regions; c_hot = Array.map fst all }
  with Invalid_argument e -> corrupt e

(* Ruleset health: the PC blacklist, per-rule strikes and quarantined
   rules. It is the whole of a depot's health section and the start of
   a snapshot's translator section. *)
let health saved rs =
  let strikes, quarantined = Ruleset.export_health rs in
  (saved.Translator_rule.s_blacklist, strikes, quarantined)

let enc_health b (blacklist, strikes, quarantined) =
  Enc.list b Enc.int blacklist;
  Enc.list b (Enc.pair Enc.int Enc.int) strikes;
  Enc.list b Enc.int quarantined

let dec_health d =
  let blacklist = Dec.list d Dec.int in
  let strikes = Dec.list d (Dec.pair Dec.int Dec.int) in
  (blacklist, strikes, Dec.list d Dec.int)

(* The health, then shadow-verification progress and the counters. *)
let encode_translator tr rs =
  let saved = Translator_rule.save_state tr in
  Enc.encode @@ fun b ->
  enc_health b (health saved rs);
  List.iter (Enc.list b (Enc.pair Enc.int Enc.int))
    [ saved.Translator_rule.s_shadow_done; saved.Translator_rule.s_shadow_tries ];
  List.iter (Enc.int b)
    [
      saved.Translator_rule.s_rule_covered;
      saved.Translator_rule.s_fallback;
      saved.Translator_rule.s_inter_tb_elisions;
    ]

let decode_translator payload =
  Dec.whole ~name:"translator" payload @@ fun d ->
  let ((s_blacklist, _, _) as h) = dec_health d in
  let s_shadow_done = Dec.list d (Dec.pair Dec.int Dec.int) in
  let s_shadow_tries = Dec.list d (Dec.pair Dec.int Dec.int) in
  let s_rule_covered = Dec.int d in
  let s_fallback = Dec.int d in
  let s_inter_tb_elisions = Dec.int d in
  ( {
      Translator_rule.s_blacklist;
      s_shadow_done;
      s_shadow_tries;
      s_rule_covered;
      s_fallback;
      s_inter_tb_elisions;
    },
    h )

let encode_resume (r : Engine.resume) =
  Enc.encode @@ fun b ->
  Enc.int b r.Engine.rpc;
  List.iter (Enc.bool b) [ r.Engine.rprivileged; r.Engine.rmmu_on; r.Engine.rneeds_enter ]

let decode_resume payload =
  Dec.whole ~name:"resume" payload @@ fun d ->
  let rpc = Dec.int d in
  let rprivileged = Dec.bool d in
  let rmmu_on = Dec.bool d in
  { Engine.rpc; rprivileged; rmmu_on; rneeds_enter = Dec.bool d }

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
  let cache =
    match Option.bind prev (fun p -> Snapshot.value p "cache") with
    | Some (Code c as v) ->
      let code = freeze_code t (Some c) in
      if code == c then v else Code code
    | _ -> Code (freeze_code t None)
  in
  Snapshot.add_value snap "cache" cache ~encode:(function
    | Code c -> encode_code c
    | _ -> assert false);
  add "cachectl" (Enc.encode (fun b -> List.iter (Enc.int b) Tb.Cache.[ full_flushes t.cache; ids t.cache ]));
  (match (t.rule_translator, t.ruleset) with
  | Some tr, Some rs -> add "translator" (encode_translator tr rs)
  | _ -> ());
  (match resume with Some r -> add "resume" (encode_resume r) | None -> ());
  add "degrade" (Enc.encode (fun b -> Enc.int b (rung_level t.rung_floor)));
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

(* A live record for a captured entry: empty links, hotness [hot],
   the captured program and meta. *)
let fresh f ~id ~hot ~region_ids =
  { f.f_tb with Tb.id; links = Array.make (Array.length f.f_links) None; hot; region_ids }

let stale t f =
  match t.rule_translator with Some tr -> Translator_rule.stale tr f.f_tb | None -> false

(* The captured chain graph between installed entries ([installed] in
   the combined index space), in the slots the live engine left empty. *)
let link_installed code installed =
  Array.iteri
    (fun k f ->
      Option.iter
        (fun (tb : Tb.t) ->
          Array.iteri
            (fun slot succ ->
              if succ >= 0 && slot < Array.length tb.Tb.links && Option.is_none tb.Tb.links.(slot)
              then tb.Tb.links.(slot) <- installed.(succ))
            f.f_links)
        installed.(k))
    (Array.append code.c_tbs code.c_regions)

(* Install captured code as it was: every TB and region a fresh record
   with its captured id, sharing the captured program, then the chain
   graph. Nothing is translated, fused or re-emitted. When the live
   health is not the captured one, a [stale] entry is dropped with
   every region over it; the engine translates it on demand. *)
let thaw t code ~health_as_captured =
  let n = Array.length code.c_tbs in
  let entries = Array.append code.c_tbs code.c_regions in
  let drop = Array.map (fun f -> (not health_as_captured) && stale t f) entries in
  Array.iteri
    (fun j f -> if Array.exists (Array.get drop) f.f_members then drop.(n + j) <- true)
    code.c_regions;
  Tb.Cache.flush t.cache;
  let live =
    Array.mapi
      (fun k f ->
        if drop.(k) then None
        else
          let region_ids = Array.map (fun i -> code.c_tbs.(i).f_tb.Tb.id) f.f_members in
          Some (fresh f ~id:f.f_tb.Tb.id ~hot:code.c_hot.(k) ~region_ids))
      entries
  in
  Array.iteri
    (fun k tb ->
      match tb with
      | Some tb when k < n -> Tb.Cache.add_exact t.cache tb
      | Some tb ->
        Tb.Cache.add_region t.cache tb
          ~members:(Array.to_list (Array.map (fun i -> Option.get live.(i)) entries.(k).f_members))
      | None -> ())
    live;
  link_installed code live

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
  (* Translator tables and rule health install before the cache: every
     health change flushed the captured cache, so the captured health
     is the one every captured TB was translated under, and [thaw]
     drops what a health grown since would translate differently.

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
  let health_as_captured =
    match (t.rule_translator, t.ruleset, Snapshot.find_opt snap "translator") with
    | Some tr, Some rs, Some payload ->
      let saved, (blacklist, strikes, quarantined) = decode_translator payload in
      ratchet_health tr rs ~base:saved ~blacklist ~strikes ~quarantined;
      (* the merge is a union, so equal sizes mean equal sets *)
      Translator_rule.blacklist_size tr = List.length blacklist
      && Ruleset.quarantined_count rs = List.length quarantined
    | None, _, None -> true
    | Some _, _, None -> raise (Snapshot.Corrupt "missing section translator")
    | _ -> raise (Snapshot.Corrupt "translator section in a qemu-mode snapshot")
  in
  (match Snapshot.find_opt snap "degrade" with
  | Some payload ->
    let floor = rung_of_level (Dec.whole ~name:"degrade" payload Dec.int) in
    t.rung_floor <- lowest_rung t.rung_floor floor
  | None -> ());
  (* The captured cache is the mode's own translator's code, which is
     only faithful while the machine still runs on its natural rung.
     Once the floor has ratcheted below it (a sticky watchdog demotion,
     here or recorded in the snapshot), the captured TBs and the engine
     that will execute them disagree on host-state conventions — so a
     demoted machine flushes instead and lets the degraded engine
     retranslate on demand, which is guest-invariant. Otherwise the
     captured code installs as it was, from the value a capture in this
     process holds or from its bytes. *)
  (if rebuild && t.rung_floor = natural_rung t then
     let code =
       match Snapshot.value snap "cache" with
       | Some (Code code) -> code
       | _ ->
         decode_code ~rule:(Option.map Ruleset.find t.ruleset) (Snapshot.find snap "cache")
     in
     thaw t code ~health_as_captured
   else Tb.Cache.flush t.cache);
  let full_flushes, ids = Snapshot.decode snap "cachectl" (Dec.pair Dec.int Dec.int) in
  Tb.Cache.set_full_flushes t.cache full_flushes;
  Tb.Cache.set_ids t.cache ids;
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
    let words = Dec.whole ~name:"inject" payload Dec.i64_array in
    Some (try Fi.of_export words with Invalid_argument e -> raise (Snapshot.Corrupt ("inject: " ^ e)))

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

(* The depot's health section carries only the durable demotions —
   PC blacklist, per-rule strikes, quarantined rules. Shadow
   verification progress deliberately stays out: depot-installed TBs
   re-verify on every warm boot, and that re-verification is the
   sensor the depot's self-repair loop (poison write-back) runs on. *)
let encode_health h = Enc.encode (fun b -> enc_health b h)

let depot_health depot =
  Depot.guard "health" (fun () -> Dec.whole ~name:"health" (Depot.health depot) dec_health)

let depot_compat t =
  {
    Depot.c_mode = mode_name t.mode;
    c_rules_digest =
      (match t.ruleset with Some rs -> Repro_rules.Serialize.digest rs | None -> 0);
    c_hot_threshold = Engine.hot_threshold;
  }

let depot_capture t =
  let natural = natural_rung t in
  if t.rung_floor <> natural then
    Depot.err "compat"
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
    | Some tr, Some rs -> encode_health (health (Translator_rule.save_state tr) rs)
    | _ -> encode_health ([], [], [])
  in
  Depot.create ~compat:(depot_compat t) ~rules ~cache:(encode_code (freeze_code t None)) ~health

(* Guest memory holds [tb]'s block as a fresh fetch at its PC and regime
   would read it: each word fetches, with no side effect, and decodes to
   the instruction it was translated from (the interpreter-helper TB
   records none; its word need only fetch). *)
let holds_block t (tb : Tb.t) =
  let rt = t.rt and ttbr = Cpu.get_ttbr t.rt.Runtime.cpu in
  let holds k =
    let pc = tb.Tb.guest_pc + (4 * k) in
    match
      Repro_mmu.Mmu.peek_fetch rt.Runtime.bus ~ttbr ~mmu_on:tb.Tb.mmu_on ~privileged:tb.Tb.privileged pc
    with
    | None -> false
    | Some _ when Array.length tb.Tb.guest_insns = 0 -> true
    | Some w -> (
      match Repro_arm.Decode_cache.decode rt.Runtime.dcache w with
      | Ok i -> Repro_arm.Insn.equal i tb.Tb.guest_insns.(k)
      | Error _ -> false)
  in
  let rec from k = k = tb.Tb.guest_len || (holds k && from (k + 1)) in
  from 0

(* One install wave (DESIGN §16). A pending entry whose block memory
   holds installs with a fresh id, as its cold translation was left
   (code write-protected); a TB the engine already translated at its
   key is adopted instead, never served, so never the depot's to
   poison. A stale entry is dead. A region installs once its members
   are, unless the engine fused one at its head, it or a member is
   stale, or an adopted member holds other guest code. Entries whose
   memory does not hold stay pending until the first miss in their
   regime. Nothing here translates, draws from the injector, counts or
   touches the CPU.

   The hotness contract: an entry captured below [Engine.hot_threshold]
   installs at 0, as its cold translation starts, so the warm run
   reaches the threshold where a cold run reaches it; one at or over
   the threshold keeps its count, as it was offered once already and
   its region, if one formed, is in the depot. *)
let depot_hot h = if h >= Engine.hot_threshold then h else 0

let depot_wave t dp =
  let code = dp.dp_code and installed = dp.dp_installed and dead = dp.dp_dead in
  let n = Array.length code.c_tbs in
  let pending k = Option.is_none installed.(k) && not dead.(k) in
  let enter k tb =
    installed.(k) <- Some tb;
    dp.dp_installed_count <- dp.dp_installed_count + 1
  in
  let install k f ~region_ids =
    let tb =
      fresh f ~id:(Tb.Cache.next_id t.cache) ~hot:(depot_hot code.c_hot.(k)) ~region_ids
    in
    enter k tb;
    Hashtbl.replace dp.dp_served tb.Tb.id tb;
    tb
  in
  Array.iteri
    (fun i f ->
      let c = f.f_tb in
      if pending i then
        match
          Tb.Cache.find_plain t.cache ~pc:c.Tb.guest_pc ~privileged:c.Tb.privileged
            ~mmu_on:c.Tb.mmu_on
        with
        | Some tb -> enter i tb
        | None ->
          if stale t f then dead.(i) <- true
          else if holds_block t c then begin
            let tb = install i f ~region_ids:[||] in
            Tb.Cache.add_exact t.cache tb;
            let tlb = t.rt.Runtime.ctx.Runtime.Exec.tlb in
            Tlb.clear_write_tag tlb tb.Tb.guest_pc;
            Tlb.clear_write_tag tlb (tb.Tb.guest_pc + (4 * tb.Tb.guest_len) - 4)
          end)
    code.c_tbs;
  Array.iteri
    (fun j f ->
      let k = n + j in
      let members = Array.map (Array.get installed) f.f_members in
      if pending k && Array.for_all Option.is_some members then begin
        let members = Array.map Option.get members in
        let head = members.(0) in
        let fused_live =
          match
            Tb.Cache.find t.cache ~pc:head.Tb.guest_pc ~privileged:head.Tb.privileged
              ~mmu_on:head.Tb.mmu_on
          with
          | Some tb -> Tb.is_region tb
          | None -> false
        in
        let same i (tb : Tb.t) =
          let c = code.c_tbs.(i) in
          (not (stale t c)) && tb.Tb.guest_insns = c.f_tb.Tb.guest_insns
        in
        if fused_live || stale t f || not (Array.for_all2 same f.f_members members) then
          dead.(k) <- true
        else begin
          let region = install k f ~region_ids:(Array.map (fun (tb : Tb.t) -> tb.Tb.id) members) in
          Tb.Cache.add_region t.cache region ~members:(Array.to_list members);
          (* stale chained jumps into the head would bypass the region *)
          Tb.Cache.unlink_target t.cache head
        end
      end)
    code.c_regions;
  link_installed code installed

let depot_install t depot =
  let c = Depot.compat depot in
  let here = depot_compat t in
  if c.Depot.c_mode <> here.Depot.c_mode then
    Depot.err "compat" "depot built under mode %s, this machine runs %s"
      c.Depot.c_mode here.Depot.c_mode;
  if c.Depot.c_rules_digest <> here.Depot.c_rules_digest then
    Depot.err "compat"
      "ruleset digest mismatch (depot %#x, machine %#x): depot code only \
       installs under the ruleset that translated it"
      c.Depot.c_rules_digest here.Depot.c_rules_digest;
  if c.Depot.c_hot_threshold <> here.Depot.c_hot_threshold then
    Depot.err "compat" "hot threshold mismatch (depot %d, engine %d)"
      c.Depot.c_hot_threshold here.Depot.c_hot_threshold;
  let natural = natural_rung t in
  if t.rung_floor <> natural then
    Depot.err "compat"
      "machine floor is the %s rung; depot code is translated for its \
       natural %s engine"
      (rung_name t.rung_floor) (rung_name natural);
  let rule = Option.map Ruleset.find t.ruleset in
  let code = Depot.guard "cache" (fun () -> decode_code ~rule (Depot.cache_payload depot)) in
  let blacklist, strikes, quarantined = depot_health depot in
  (* The depot's durable demotions ratchet in before any entry installs
     (union/max merge, the same policy snapshot restore uses); the
     flush keeps no TB translated under the pre-merge health alive. *)
  Tb.Cache.flush t.cache;
  (match (t.rule_translator, t.ruleset) with
  | Some tr, Some rs -> ratchet_health tr rs ~blacklist ~strikes ~quarantined
  | _ -> ());
  let n = Array.length code.c_tbs and m = Array.length code.c_regions in
  let qpcs = Hashtbl.create 8 in
  List.iter
    (fun pc -> Hashtbl.replace qpcs pc ())
    (Depot.quarantined_pcs depot);
  let skip = Array.make (n + m) false in
  let keys = Hashtbl.create (2 * (n + 1)) in
  Array.iteri
    (fun i f ->
      let tb = f.f_tb in
      if Hashtbl.mem qpcs tb.Tb.guest_pc then skip.(i) <- true;
      Hashtbl.replace keys (tb.Tb.guest_pc, tb.Tb.privileged, tb.Tb.mmu_on) i)
    code.c_tbs;
  Array.iteri
    (fun j f -> if Array.exists (Array.get skip) f.f_members then skip.(n + j) <- true)
    code.c_regions;
  let dp =
    {
      dp_code = code;
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
  (* Wave 1 installs whatever current guest memory holds — at a cold
     boot, the MMU-off entries. The rest stays pending for
     miss-triggered waves once the guest builds those worlds. *)
  depot_wave t dp;
  dp.dp_installed_count

(* Miss-triggered wave: the engine missed on (pc, regime); if that key
   is a still-pending depot entry, run a wave and serve the result. An
   entry that cannot install even at its own miss is dead — the guest
   memory it was captured against no longer exists — so it never
   triggers another wave. *)
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
        depot_wave t dp;
        match dp.dp_installed.(i) with
        | Some _ as tb -> tb
        | None ->
          dp.dp_dead.(i) <- true;
          None
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
   payload the way install would, the code's rule ids against the
   depot's own ruleset. Returns (plain TBs, superblocks). *)
let depot_check depot =
  let rule =
    match mode_of_name (Depot.compat depot).Depot.c_mode with
    | Some Qemu -> None
    | _ -> (
      match Repro_rules.Serialize.load (Depot.rules depot) with
      | Ok rs -> Some (Ruleset.find rs)
      | Error e -> Depot.err "rules" "%s" e)
  in
  let code = Depot.guard "cache" (fun () -> decode_code ~rule (Depot.cache_payload depot)) in
  ignore (depot_health depot);
  (Array.length code.c_tbs, Array.length code.c_regions)

(* Fleet write-back: fold breaker-quarantined rule ids into the depot's
   durable health. Returns true when the set grew (save warranted). *)
let depot_quarantine_rules depot ids =
  let blacklist, strikes, quarantined = depot_health depot in
  let merged = union_int ids quarantined in
  if List.length merged = List.length quarantined then false
  else begin
    Depot.set_health depot
      (encode_health (blacklist, strikes, merged));
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
    (match t.scope with
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
    (match t.scope with
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
          (* baseline is qemu-mode's natural rung: depot code serves
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
    (match (t.rt.Runtime.trace, res.Engine.reason) with
    | Some tr, `Halted code -> Trace.emit tr ~a:code Trace.Exec "halt"
    | Some tr, `Livelock pc -> Trace.emit tr ~a:pc Trace.Watchdog "fuel_exhausted"
    | _ -> ());
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
