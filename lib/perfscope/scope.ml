(* The per-run performance scope: deterministic phase attribution, the
   per-block hot-code table and the latency histograms, all a fold
   over the engine's charge windows. The scope owns the mapping of
   engine sites and host-insn tags to phases; the engine knows none.

   Everything is keyed to the retired-guest-insn clock and to exact
   host-instruction counts, so two same-seed runs produce
   byte-identical [to_json] output — the property `dbt_analyze diff`
   and the regression gate build on. Purely observational: attaching a
   scope never perturbs guest-visible state or any cost counter. *)

module Jsonx = Repro_observe.Jsonx
module Window = Repro_tcg.Window
module Tb = Repro_tcg.Tb
module Itbl = Hashtbl.Make (Int)

type block = {
  pc : int;
  privileged : bool;
  region : bool;
  insns : Repro_arm.Insn.t array;
  mutable execs : int;
  mutable guest_retired : int;
  mutable host_spent : int;
  phases : int array;
}

type t = {
  phase_total : int array;  (* Phase.n counters *)
  sites : int array Itbl.t;
      (* page_key -> per-phase host insns charged outside TB run
         windows (engine sites and entry hooks) *)
  blocks : block Itbl.t;  (* block_key -> TB run windows *)
  irq_latency : Histo.t;
  chain_latency : Histo.t;
  checkpoint_interval : Histo.t;
  translated_at : (int, int) Hashtbl.t;  (* tb id -> clock at translation *)
  mutable last_checkpoint_at : int;  (* -1 = none yet *)
}

(* Packed keys: a (page, privileged) region row sorts as the pair
   does; a block is (pc, privileged, region?) — a region shares its
   head PC with the plain head TB, so the two rows stay apart. *)
let page_key ~page ~privileged = (page lsl 1) lor Bool.to_int privileged

let block_key ~pc ~privileged ~region =
  (pc lsl 2) lor (Bool.to_int privileged lsl 1) lor Bool.to_int region

let create () =
  {
    phase_total = Array.make Phase.n 0;
    sites = Itbl.create 64;
    blocks = Itbl.create 256;
    irq_latency = Histo.create ();
    chain_latency = Histo.create ();
    checkpoint_interval = Histo.create ();
    translated_at = Hashtbl.create 256;
    last_checkpoint_at = -1;
  }

(* Host instructions charged outside a TB run window (an engine site
   or an entry hook), to phase index [i] and a (page, privileged)
   site row. *)
let charge t i ~page ~privileged n =
  if n > 0 then begin
    t.phase_total.(i) <- t.phase_total.(i) + n;
    let key = page_key ~page ~privileged in
    let row =
      match Itbl.find t.sites key with
      | row -> row
      | exception Not_found ->
        let row = Array.make Phase.n 0 in
        Itbl.add t.sites key row;
        row
    in
    row.(i) <- row.(i) + n
  end

let block t (tb : Tb.t) =
  let pc = tb.guest_pc and privileged = tb.privileged and region = Tb.is_region tb in
  let key = block_key ~pc ~privileged ~region in
  match Itbl.find t.blocks key with
  | b -> b
  | exception Not_found ->
    let len = min tb.guest_len (Array.length tb.guest_insns) in
    let b =
      { pc; privileged; region; insns = Array.sub tb.guest_insns 0 len; execs = 0;
        guest_retired = 0; host_spent = 0; phases = Array.make Phase.n 0 }
    in
    Itbl.add t.blocks key b;
    b

let phase_count t phase = t.phase_total.(Phase.index phase)
let total t = Array.fold_left ( + ) 0 t.phase_total
let phase_vector t = Array.copy t.phase_total
let irq_latency t = t.irq_latency
let chain_latency t = t.chain_latency
let checkpoint_interval t = t.checkpoint_interval

(* ---- the fold ---- *)

(* Engine sites: everything since the previous close belongs to one
   phase. *)
let site_phase : Window.event -> Phase.t = function
  | Translated | Prefetch_abort -> Translate
  | Region_formed -> Region
  | Irq_delivered -> Deliver
  | Dispatched | Chained | Linked | Smc_flush | Entered | Ran -> Execute

(* Mixed windows (entry hooks, TB runs) split by tag, indexed by
   [by_tag] slot: Compute is emitted guest work, Sync and irq polls
   are coordination, Mmu is the softMMU, glue is helper machinery. *)
let tag_phase =
  let phase : Repro_x86.Insn.tag -> Phase.t = function
    | Tag_compute -> Execute
    | Tag_sync | Tag_irq_check -> Coordinate
    | Tag_mmu -> Softmmu
    | Tag_glue -> Helper
  in
  Array.of_list (List.map (fun tag -> Phase.index (phase tag)) Repro_x86.Insn.all_tags)

let fold t (w : Window.t) =
  let page = w.page and privileged = w.privileged in
  match w.event with
  | Entered ->
    if w.host > 0 then
      for s = 0 to Array.length tag_phase - 1 do
        charge t tag_phase.(s) ~page ~privileged w.tags.(s)
      done
  | Ran ->
    let b = block t w.tb in
    b.execs <- b.execs + 1;
    b.guest_retired <- b.guest_retired + w.guest;
    b.host_spent <- b.host_spent + w.host;
    for s = 0 to Array.length tag_phase - 1 do
      let i = tag_phase.(s) in
      t.phase_total.(i) <- t.phase_total.(i) + w.tags.(s);
      b.phases.(i) <- b.phases.(i) + w.tags.(s)
    done
  | event ->
    (match event with
    | Translated ->
      if not (Hashtbl.mem t.translated_at w.tb.id) then
        Hashtbl.add t.translated_at w.tb.id w.clock
    | Linked -> (
      (* the first link into a translation stops its clock *)
      match Hashtbl.find_opt t.translated_at w.tb.id with
      | Some t0 ->
        Histo.record t.chain_latency (w.clock - t0);
        Hashtbl.remove t.translated_at w.tb.id
      | None -> ())
    | Irq_delivered when w.irq_raised_at >= 0 ->
      Histo.record t.irq_latency (w.clock - w.irq_raised_at)
    | _ -> ());
    charge t (Phase.index (site_phase event)) ~page ~privileged w.host

let note_checkpoint t ~at =
  if t.last_checkpoint_at >= 0 then
    Histo.record t.checkpoint_interval (at - t.last_checkpoint_at);
  t.last_checkpoint_at <- at

(* ---- the hot-block table ---- *)

let blocks t = Itbl.fold (fun _ b acc -> b :: acc) t.blocks []

(* Hottest first; equal weights fall back to the PC, then the packed
   key, so the order never depends on hashing. *)
let top_blocks ?(by = `Host) n t =
  let weight b = match by with `Host -> b.host_spent | `Execs -> b.execs in
  let key b = block_key ~pc:b.pc ~privileged:b.privileged ~region:b.region in
  blocks t
  |> List.sort (fun a b -> compare (weight b, key a) (weight a, key b))
  |> List.filteri (fun i _ -> i < n)

let expansion b =
  if b.guest_retired = 0 then 0.
  else float_of_int b.host_spent /. float_of_int b.guest_retired

let pp_blocks ?(top = 10) ppf t =
  let all = blocks t in
  let total = List.fold_left (fun acc b -> acc + b.host_spent) 0 all in
  Format.fprintf ppf "@[<v>%-8s  %-4s  %3s  %9s  %11s  %11s  %10s  %6s@ " "guest pc"
    "mode" "len" "execs" "guest insns" "host insns" "host/guest" "%total";
  List.iter
    (fun b ->
      Format.fprintf ppf "%08x  %-4s  %3d  %9d  %11d  %11d  %10.2f  %5.1f%%@ " b.pc
        (if b.privileged then "krnl" else "user")
        (Array.length b.insns) b.execs b.guest_retired b.host_spent (expansion b)
        (if total = 0 then 0. else 100. *. float_of_int b.host_spent /. float_of_int total))
    (top_blocks top t);
  Format.fprintf ppf "(%d TBs profiled, %d host insns attributed)" (List.length all)
    total;
  let split = Array.make Phase.n 0 in
  List.iter (fun b -> Array.iteri (fun i n -> split.(i) <- split.(i) + n) b.phases) all;
  if Array.exists (fun n -> n > 0) split then begin
    Format.fprintf ppf "@ phase split:";
    List.iter
      (fun p -> Format.fprintf ppf " %s=%d" (Phase.name p) split.(Phase.index p))
      Phase.all
  end;
  Format.fprintf ppf "@]"

let pp_disasm ppf b =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i insn -> Format.fprintf ppf "%08x:  %a@ " (b.pc + (4 * i)) Repro_arm.Insn.pp insn)
    b.insns;
  Format.fprintf ppf "@]"

let flame t ~frames =
  let fl = Flame.create () in
  List.iter
    (fun b ->
      let base = frames b in
      List.iter
        (fun p -> Flame.add fl (base @ [ Phase.name p ]) b.phases.(Phase.index p))
        Phase.all)
    (blocks t);
  fl

(* ---- reports ---- *)

let phases_json totals =
  Jsonx.obj
    (List.map (fun p -> (Phase.name p, Jsonx.int totals.(Phase.index p))) Phase.all
    @ [ ("total", Jsonx.int (Array.fold_left ( + ) 0 totals)) ])

(* The (page, privileged) region rows: site charges plus the block
   rows folded onto their head page. A row nothing was charged to
   emits nothing. *)
let regions_sorted t =
  let rows = Itbl.create 64 in
  let add key row =
    match Itbl.find_opt rows key with
    | Some acc -> Array.iteri (fun i n -> acc.(i) <- acc.(i) + n) row
    | None -> Itbl.add rows key (Array.copy row)
  in
  Itbl.iter add t.sites;
  Itbl.iter
    (fun _ b -> add (page_key ~page:(b.pc lsr 12) ~privileged:b.privileged) b.phases)
    t.blocks;
  Itbl.fold
    (fun key row acc -> if Array.exists (fun n -> n > 0) row then (key, row) :: acc else acc)
    rows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let regions =
    List.map
      (fun (key, row) ->
        Jsonx.obj
          [
            ("page", Jsonx.str (Printf.sprintf "0x%05x" (key lsr 1)));
            ("privileged", Jsonx.bool (key land 1 = 1));
            ("phases", phases_json row);
          ])
      (regions_sorted t)
  in
  Jsonx.obj
    [
      ("phases", phases_json t.phase_total);
      ("regions", Jsonx.arr regions);
      ( "histograms",
        Jsonx.obj
          [
            ("irq_latency", Histo.to_json t.irq_latency);
            ("chain_latency", Histo.to_json t.chain_latency);
            ("checkpoint_interval", Histo.to_json t.checkpoint_interval);
          ] );
    ]
