(* The coverage-attribution table: for each packed attribution word
   (tier | class | idiom | rule — see Repro_covscope.Attr) its dynamic
   retirements and attributed host-instruction cost. An int-keyed
   open-addressing table with linear probing, so a retirement neither
   allocates nor hashes polymorphically. Attribution words are
   nonnegative; [empty] marks a free slot. Cost accrual is a delta
   chain on [host_insns]: a retirement closes the previous
   instruction's accrual window ([pending] since [mark]) and opens its
   own, so the attributed costs partition [host_insns] exactly (up to
   the open tail, [cov_residual]). *)
type attribution = {
  mutable keys : int array;
  mutable counts : int array;
  mutable costs : int array;
  mutable used : int;
  mutable pending : int;  (* attr accruing cost; -1 = none yet *)
  mutable pending_slot : int;  (* its slot; -1 = not in the table *)
  mutable mark : int;  (* host_insns at the last retirement *)
}

type t = {
  mutable host_insns : int;
  by_tag : int array;
  mutable helper_insns : int;
  mutable helper_calls : int;
  mutable sys_insns : int;
  mutable guest_insns : int;
  mutable sync_ops : int;
  mutable mmu_accesses : int;
  mutable irq_polls : int;
  mutable tlb_misses : int;
  mutable engine_returns : int;
  mutable chained_jumps : int;
  mutable tb_translations : int;
  mutable irqs_delivered : int;
  mutable shadow_replays : int;
  mutable shadow_divergences : int;
  mutable rules_quarantined : int;
  mutable quarantine_fallbacks : int;
  mutable livelocks_recovered : int;
  mutable regions_formed : int;
  attribution : attribution;
}

let n_tags = List.length Insn.all_tags
let empty = -1
let initial_capacity = 64

let attribution () =
  {
    keys = Array.make initial_capacity empty;
    counts = Array.make initial_capacity 0;
    costs = Array.make initial_capacity 0;
    used = 0;
    pending = -1;
    pending_slot = -1;
    mark = 0;
  }

(* The slot holding [attr], or the free slot where it belongs. The
   table is never more than half full, so a probe always ends. *)
let rec probe_from keys m attr i =
  let k = Array.unsafe_get keys i in
  if k = attr || k = empty then i else probe_from keys m attr ((i + 1) land m)

let probe keys attr =
  let m = Array.length keys - 1 in
  probe_from keys m attr ((attr * 0x9E3779B1) lsr 7 land m)

let grow a =
  let keys = a.keys and counts = a.counts and costs = a.costs in
  let cap = 2 * Array.length keys in
  a.keys <- Array.make cap empty;
  a.counts <- Array.make cap 0;
  a.costs <- Array.make cap 0;
  Array.iteri
    (fun i k ->
      if k <> empty then begin
        let j = probe a.keys k in
        a.keys.(j) <- k;
        a.counts.(j) <- counts.(i);
        a.costs.(j) <- costs.(i)
      end)
    keys;
  a.pending_slot <- (if a.pending_slot < 0 then -1 else probe a.keys a.pending)

(* [attr]'s slot, inserting an empty row if it has none. *)
let rec slot a attr =
  let i = probe a.keys attr in
  if a.keys.(i) <> empty then i
  else if 2 * (a.used + 1) > Array.length a.keys then begin
    grow a;
    slot a attr
  end
  else begin
    a.keys.(i) <- attr;
    a.used <- a.used + 1;
    i
  end

let clear_attribution a =
  Array.fill a.keys 0 (Array.length a.keys) empty;
  Array.fill a.counts 0 (Array.length a.counts) 0;
  Array.fill a.costs 0 (Array.length a.costs) 0;
  a.used <- 0;
  a.pending <- -1;
  a.pending_slot <- -1;
  a.mark <- 0

let create () =
  {
    host_insns = 0;
    by_tag = Array.make n_tags 0;
    helper_insns = 0;
    helper_calls = 0;
    sys_insns = 0;
    guest_insns = 0;
    sync_ops = 0;
    mmu_accesses = 0;
    irq_polls = 0;
    tlb_misses = 0;
    engine_returns = 0;
    chained_jumps = 0;
    tb_translations = 0;
    irqs_delivered = 0;
    shadow_replays = 0;
    shadow_divergences = 0;
    rules_quarantined = 0;
    quarantine_fallbacks = 0;
    livelocks_recovered = 0;
    regions_formed = 0;
    attribution = attribution ();
  }

let reset t =
  t.host_insns <- 0;
  Array.fill t.by_tag 0 n_tags 0;
  t.helper_insns <- 0;
  t.helper_calls <- 0;
  t.sys_insns <- 0;
  t.guest_insns <- 0;
  t.sync_ops <- 0;
  t.mmu_accesses <- 0;
  t.irq_polls <- 0;
  t.tlb_misses <- 0;
  t.engine_returns <- 0;
  t.chained_jumps <- 0;
  t.tb_translations <- 0;
  t.irqs_delivered <- 0;
  t.shadow_replays <- 0;
  t.shadow_divergences <- 0;
  t.rules_quarantined <- 0;
  t.quarantine_fallbacks <- 0;
  t.livelocks_recovered <- 0;
  t.regions_formed <- 0;
  clear_attribution t.attribution

(* The tag's slot in [by_tag] (one per [Insn.all_tags] entry). *)
let tag_index : Insn.tag -> int = function
  | Tag_compute -> 0
  | Tag_sync -> 1
  | Tag_mmu -> 2
  | Tag_irq_check -> 3
  | Tag_glue -> 4

let charge_tag t tag n =
  t.host_insns <- t.host_insns + n;
  t.by_tag.(tag_index tag) <- t.by_tag.(tag_index tag) + n

let tag_count t tag = t.by_tag.(tag_index tag)

(* ---- coverage attribution ---- *)

let retire t attr =
  let a = t.attribution in
  if a.pending >= 0 then begin
    let d = t.host_insns - a.mark in
    if d > 0 then begin
      if a.pending_slot < 0 then a.pending_slot <- slot a a.pending;
      a.costs.(a.pending_slot) <- a.costs.(a.pending_slot) + d
    end
  end;
  t.guest_insns <- t.guest_insns + 1;
  let s = slot a attr in
  a.counts.(s) <- a.counts.(s) + 1;
  a.mark <- t.host_insns;
  a.pending <- attr;
  a.pending_slot <- s

let fold_cov f t acc =
  let a = t.attribution in
  let acc = ref acc in
  Array.iteri
    (fun i k -> if k <> empty then acc := f k a.counts.(i) a.costs.(i) !acc)
    a.keys;
  !acc

let cov_entries t =
  fold_cov (fun attr n cost acc -> (attr, n, cost) :: acc) t [] |> List.sort compare

let cov_retired t = fold_cov (fun _ n _ acc -> acc + n) t 0
let cov_attributed t = fold_cov (fun _ _ cost acc -> acc + cost) t 0
let cov_residual t = t.host_insns - t.attribution.mark

let host_per_guest t =
  if t.guest_insns = 0 then 0. else float_of_int t.host_insns /. float_of_int t.guest_insns

let sync_per_guest t =
  if t.guest_insns = 0 then 0.
  else float_of_int (tag_count t Insn.Tag_sync) /. float_of_int t.guest_insns

let pp ppf t =
  Format.fprintf ppf
    "@[<v>host insns      %d@ guest insns     %d@ host/guest      %.2f@ " t.host_insns
    t.guest_insns (host_per_guest t);
  List.iter
    (fun tag ->
      Format.fprintf ppf "  %-10s    %d@ " (Insn.tag_name tag) (tag_count t tag))
    Insn.all_tags;
  Format.fprintf ppf
    "helper calls    %d (cost %d)@ sync ops        %d@ mmu accesses    %d (misses %d)@ \
     irq polls       %d (delivered %d)@ engine returns  %d@ chained jumps   %d@ \
     tb translations %d@]"
    t.helper_calls t.helper_insns t.sync_ops t.mmu_accesses t.tlb_misses t.irq_polls
    t.irqs_delivered t.engine_returns t.chained_jumps t.tb_translations;
  if t.shadow_replays > 0 || t.rules_quarantined > 0 || t.quarantine_fallbacks > 0 then
    Format.fprintf ppf
      "@ @[<v>shadow replays  %d (divergences %d)@ rules quarantined %d@ \
       quarantine fallbacks %d@]"
      t.shadow_replays t.shadow_divergences t.rules_quarantined t.quarantine_fallbacks;
  if t.livelocks_recovered > 0 then
    Format.fprintf ppf "@ livelocks recovered %d" t.livelocks_recovered

(* JSON exposition, hand-rolled over a Buffer so repro_x86 does not
   grow an observability dependency. Field names match the record. *)
let to_json t =
  let buf = Buffer.create 512 in
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf (Printf.sprintf "%S:%d" k v)
  in
  Buffer.add_char buf '{';
  field "host_insns" t.host_insns;
  List.iter
    (fun tag -> field ("host_" ^ Insn.tag_name tag) (tag_count t tag))
    Insn.all_tags;
  field "helper_insns" t.helper_insns;
  field "helper_calls" t.helper_calls;
  field "sys_insns" t.sys_insns;
  field "guest_insns" t.guest_insns;
  field "sync_ops" t.sync_ops;
  field "mmu_accesses" t.mmu_accesses;
  field "irq_polls" t.irq_polls;
  field "tlb_misses" t.tlb_misses;
  field "engine_returns" t.engine_returns;
  field "chained_jumps" t.chained_jumps;
  field "tb_translations" t.tb_translations;
  field "irqs_delivered" t.irqs_delivered;
  field "shadow_replays" t.shadow_replays;
  field "shadow_divergences" t.shadow_divergences;
  field "rules_quarantined" t.rules_quarantined;
  field "quarantine_fallbacks" t.quarantine_fallbacks;
  field "livelocks_recovered" t.livelocks_recovered;
  field "regions_formed" t.regions_formed;
  Buffer.add_string buf
    (Printf.sprintf ",\"host_per_guest\":%.6f,\"sync_per_guest\":%.6f}"
       (host_per_guest t) (sync_per_guest t));
  Buffer.contents buf

let n_scalars = 19

(* Snapshot support: every counter flattened in a fixed order (scalars
   first, then the by-tag array). Comparing two [to_array] dumps is
   the bit-identity check used by the restore tests. Built in place:
   a checkpoint takes one of these every few thousand guest insns. *)
let to_array t =
  let a = t.attribution in
  (* coverage tail: mark, pending+1 (kept nonnegative for the varint
     encoder), entry count, then (attr, retirements, cost) triples in
     ascending attr order — deterministic regardless of slot order. *)
  let slots = Array.make a.used 0 in
  let k = ref 0 in
  Array.iteri
    (fun i key ->
      if key <> empty then begin
        slots.(!k) <- i;
        incr k
      end)
    a.keys;
  Array.sort (fun i j -> Int.compare a.keys.(i) a.keys.(j)) slots;
  let base = n_scalars + n_tags in
  let out = Array.make (base + 3 + (3 * a.used)) 0 in
  let scalars =
    [|
      t.host_insns; t.helper_insns; t.helper_calls; t.sys_insns; t.guest_insns;
      t.sync_ops; t.mmu_accesses; t.irq_polls; t.tlb_misses; t.engine_returns;
      t.chained_jumps; t.tb_translations; t.irqs_delivered; t.shadow_replays;
      t.shadow_divergences; t.rules_quarantined; t.quarantine_fallbacks;
      t.livelocks_recovered; t.regions_formed;
    |]
  in
  Array.blit scalars 0 out 0 n_scalars;
  Array.blit t.by_tag 0 out n_scalars n_tags;
  out.(base) <- a.mark;
  out.(base + 1) <- a.pending + 1;
  out.(base + 2) <- a.used;
  Array.iteri
    (fun e s ->
      let o = base + 3 + (3 * e) in
      out.(o) <- a.keys.(s);
      out.(o + 1) <- a.counts.(s);
      out.(o + 2) <- a.costs.(s))
    slots;
  out

let load_array t a =
  let base = n_scalars + n_tags in
  (if Array.length a < base + 3 then invalid_arg "Stats.load_array: bad length");
  let n_entries = a.(base + 2) in
  if Array.length a <> base + 3 + (3 * n_entries) then
    invalid_arg "Stats.load_array: bad length";
  let c = t.attribution in
  clear_attribution c;
  for i = 0 to n_entries - 1 do
    let o = base + 3 + (3 * i) in
    let s = slot c a.(o) in
    c.counts.(s) <- a.(o + 1);
    c.costs.(s) <- a.(o + 2)
  done;
  c.mark <- a.(base);
  c.pending <- a.(base + 1) - 1;
  if c.pending >= 0 then begin
    let s = probe c.keys c.pending in
    if c.keys.(s) <> empty then c.pending_slot <- s
  end;
  t.host_insns <- a.(0);
  t.helper_insns <- a.(1);
  t.helper_calls <- a.(2);
  t.sys_insns <- a.(3);
  t.guest_insns <- a.(4);
  t.sync_ops <- a.(5);
  t.mmu_accesses <- a.(6);
  t.irq_polls <- a.(7);
  t.tlb_misses <- a.(8);
  t.engine_returns <- a.(9);
  t.chained_jumps <- a.(10);
  t.tb_translations <- a.(11);
  t.irqs_delivered <- a.(12);
  t.shadow_replays <- a.(13);
  t.shadow_divergences <- a.(14);
  t.rules_quarantined <- a.(15);
  t.quarantine_fallbacks <- a.(16);
  t.livelocks_recovered <- a.(17);
  t.regions_formed <- a.(18);
  Array.blit a n_scalars t.by_tag 0 n_tags
