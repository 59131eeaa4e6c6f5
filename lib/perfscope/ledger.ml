(* Coordination ledger — per-optimization attribution of coordination
   savings (the paper's Fig. 17 breakdown, as a first-class report).

   Each optimization pass in the rule translator removes coordination
   work: Sync-tagged host instructions and whole coordination
   operations (a flags save or restore).  The emitter records, per
   translated TB, a small provenance vector saying how much each pass
   saved *in that TB's code* versus the counterfactual where the pass
   is off.  The ledger then aggregates two views:

   - static: provenance summed once per translation (savings baked
     into the emitted code);
   - dynamic: a fold over the engine's charge windows — provenance
     summed once per TB *execution*, plus the costs the emitter cannot
     see, read off the windows as negative savings (see [fold]).

   Provenance layout: a flat int array of length [2 * n_passes];
   slot [2*i] holds sync ops saved and slot [2*i+1] host insns saved
   for the pass with index [i].  Negative entries are legal and mean
   the pass *costs* that much in the given view. *)

module Jsonx = Repro_observe.Jsonx
module Window = Repro_tcg.Window

type pass =
  | Reduction       (* III-B   flag-use reduction *)
  | Elim_restores   (* III-C.1 redundant restore elimination *)
  | Elim_mem        (* III-C.2 save/restore elimination around helpers *)
  | Inter_tb        (* III-C.3 inter-TB save elision *)
  | Sched_dbu       (* III-D.1 flag-sync scheduling *)
  | Sched_irq       (* III-D.2 interrupt-check scheduling *)
  | Region          (* hot-region superblock fusion *)

let passes =
  [ Reduction; Elim_restores; Elim_mem; Inter_tb; Sched_dbu; Sched_irq; Region ]

let n_passes = 7

let pass_index = function
  | Reduction -> 0
  | Elim_restores -> 1
  | Elim_mem -> 2
  | Inter_tb -> 3
  | Sched_dbu -> 4
  | Sched_irq -> 5
  | Region -> 6

let pass_id = function
  | Reduction -> "III-B"
  | Elim_restores -> "III-C.1"
  | Elim_mem -> "III-C.2"
  | Inter_tb -> "III-C.3"
  | Sched_dbu -> "III-D.1"
  | Sched_irq -> "III-D.2"
  | Region -> "region"

let pass_name = function
  | Reduction -> "flag-use reduction"
  | Elim_restores -> "redundant restore elimination"
  | Elim_mem -> "helper save/restore elimination"
  | Inter_tb -> "inter-TB save elision"
  | Sched_dbu -> "flag-sync scheduling"
  | Sched_irq -> "interrupt-check scheduling"
  | Region -> "hot-region superblock fusion"

(* ---------- provenance vectors ---------- *)

let prov_len = 2 * n_passes
let zero_prov () = Array.make prov_len 0

let prov_add p pass ~ops ~insns =
  let i = pass_index pass in
  p.(2 * i) <- p.(2 * i) + ops;
  p.((2 * i) + 1) <- p.((2 * i) + 1) + insns

let prov_diff ~old_ p =
  Array.init prov_len (fun i ->
      p.(i) - (if i < Array.length old_ then old_.(i) else 0))

let prov_is_zero p = Array.for_all (fun v -> v = 0) p

(* ---------- the ledger ---------- *)

type t = {
  static_ops : int array;
  static_insns : int array;
  dyn_ops : int array;
  dyn_insns : int array;
  mutable tb_statics : int; (* translations whose provenance was recorded *)
  mutable tb_execs : int;   (* TB executions with non-empty provenance *)
}

let create () =
  {
    static_ops = Array.make n_passes 0;
    static_insns = Array.make n_passes 0;
    dyn_ops = Array.make n_passes 0;
    dyn_insns = Array.make n_passes 0;
    tb_statics = 0;
    tb_execs = 0;
  }

let add_into ops insns p =
  for i = 0 to n_passes - 1 do
    ops.(i) <- ops.(i) + p.(2 * i);
    insns.(i) <- insns.(i) + p.((2 * i) + 1)
  done

let record_static t p =
  if Array.length p = prov_len then begin
    add_into t.static_ops t.static_insns p;
    t.tb_statics <- t.tb_statics + 1
  end

let record_static_delta t p =
  (* re-emission: replaces a TB's prior contribution, so the
     translation count is not bumped *)
  if Array.length p = prov_len then add_into t.static_ops t.static_insns p

let record_exec t p =
  (* tolerates [||] — TBs from the baseline translator carry no
     provenance *)
  if Array.length p = prov_len && not (prov_is_zero p) then begin
    add_into t.dyn_ops t.dyn_insns p;
    t.tb_execs <- t.tb_execs + 1
  end

let add_dynamic t pass ~ops ~insns =
  let i = pass_index pass in
  t.dyn_ops.(i) <- t.dyn_ops.(i) + ops;
  t.dyn_insns.(i) <- t.dyn_insns.(i) + insns

let sync = Repro_x86.Stats.tag_index Repro_x86.Insn.Tag_sync

(* Outside emitted code Sync is charged only at interrupt delivery
   (III-B's lazy flag parse) and at an assuming TB's engine entry
   (III-C.3's flag restore), so those windows' Sync is exactly those
   costs. *)
let fold t (w : Window.t) =
  match w.event with
  | Ran -> record_exec t w.tb.Repro_tcg.Tb.prov
  | Irq_delivered -> add_dynamic t Reduction ~ops:0 ~insns:(-w.tags.(sync))
  | Entered -> add_dynamic t Inter_tb ~ops:(-w.sync_ops) ~insns:(-w.tags.(sync))
  | _ -> ()

let static_ops t pass = t.static_ops.(pass_index pass)
let static_insns t pass = t.static_insns.(pass_index pass)
let dyn_ops t pass = t.dyn_ops.(pass_index pass)
let dyn_insns t pass = t.dyn_insns.(pass_index pass)

let sum a = Array.fold_left ( + ) 0 a
let total_static_ops t = sum t.static_ops
let total_static_insns t = sum t.static_insns
let total_dyn_ops t = sum t.dyn_ops
let total_dyn_insns t = sum t.dyn_insns

(* ---------- reporting ---------- *)

let pp_report fmt t =
  Format.fprintf fmt
    "coordination ledger (savings vs the pass being disabled)@,";
  Format.fprintf fmt "  %-9s %-34s %10s %10s %12s %12s@," "pass" ""
    "static ops" "static ins" "dynamic ops" "dynamic ins";
  List.iter
    (fun p ->
      Format.fprintf fmt "  %-9s %-34s %10d %10d %12d %12d@," (pass_id p)
        (pass_name p) (static_ops t p) (static_insns t p) (dyn_ops t p)
        (dyn_insns t p))
    passes;
  Format.fprintf fmt "  %-9s %-34s %10d %10d %12d %12d@," "total" ""
    (total_static_ops t) (total_static_insns t) (total_dyn_ops t)
    (total_dyn_insns t);
  Format.fprintf fmt
    "  (%d TB translations attributed, %d attributed TB executions)"
    t.tb_statics t.tb_execs

let to_json t =
  Jsonx.obj
    [
      ( "passes",
        Jsonx.arr
          (List.map
             (fun p ->
               Jsonx.obj
                 [
                   ("id", Jsonx.str (pass_id p));
                   ("name", Jsonx.str (pass_name p));
                   ("static_ops", Jsonx.int (static_ops t p));
                   ("static_insns", Jsonx.int (static_insns t p));
                   ("dyn_ops", Jsonx.int (dyn_ops t p));
                   ("dyn_insns", Jsonx.int (dyn_insns t p));
                 ])
             passes) );
      ( "total",
        Jsonx.obj
          [
            ("static_ops", Jsonx.int (total_static_ops t));
            ("static_insns", Jsonx.int (total_static_insns t));
            ("dyn_ops", Jsonx.int (total_dyn_ops t));
            ("dyn_insns", Jsonx.int (total_dyn_insns t));
          ] );
      ("tb_statics", Jsonx.int t.tb_statics);
      ("tb_execs", Jsonx.int t.tb_execs);
    ]
