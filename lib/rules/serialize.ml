module A = Repro_arm.Insn
module X = Repro_x86.Insn
module Codec = Repro_common.Codec
module Enc = Codec.Enc
module Dec = Codec.Dec

(* The last byte numbers the format. *)
let magic = "DBTRULE\x01"

(* A rule binds at most this many parameters of each kind; the
   translator allocates a binding of that size per match attempt. *)
let max_params = 16

(* Enumerations by their position here. A constructor with fields is a
   number for its constructor, then its fields in order; the decoder is
   the encoder's walk read back. *)
let host_alu_ops = `Matched :: List.map (fun o -> `Fixed o) X.all_alu_ops
let carries = [ None; Some `Direct; Some `Inverted ]

(* ---------- the encode walk ---------- *)

let pimm b = function
  | Rule.P_imm i -> Enc.nat b 0; Enc.nat b i
  | Rule.P_imm_shl (i, k) -> Enc.nat b 1; Enc.nat b i; Enc.nat b k
  | Rule.Fixed v -> Enc.nat b 2; Enc.int b v

let op2 b = function
  | Rule.G_imm pi -> Enc.nat b 0; pimm b pi
  | Rule.G_reg p -> Enc.nat b 1; Enc.nat b p
  | Rule.G_shift { rm; kind; amount } ->
    Enc.nat b 2; Enc.nat b rm; Enc.enum A.all_shift_kinds b kind; pimm b amount
  | Rule.G_shift_reg { rm; kind; rs } ->
    Enc.nat b 3; Enc.nat b rm; Enc.enum A.all_shift_kinds b kind; Enc.nat b rs

let ginsn b = function
  | Rule.G_dp { ops; s; rd; rn; op2 = o } ->
    Enc.nat b 0; Enc.list b (Enc.enum A.all_dp_ops) ops; Enc.bool b s;
    Enc.nat b rd; Enc.nat b rn; op2 b o
  | Rule.G_mul { s; rd; rn; rm; acc } ->
    Enc.nat b 1; Enc.bool b s; List.iter (Enc.nat b) [ rd; rn; rm ]; Enc.option b Enc.nat acc
  | Rule.G_movw { rd; imm } -> Enc.nat b 2; Enc.nat b rd; pimm b imm
  | Rule.G_movt { rd; imm } -> Enc.nat b 3; Enc.nat b rd; pimm b imm

let hop b = function
  | Rule.H_param i -> Enc.nat b 0; Enc.nat b i
  | Rule.H_scratch k -> Enc.nat b 1; Enc.nat b k
  | Rule.H_imm pi -> Enc.nat b 2; pimm b pi

let hinsn b = function
  | Rule.H_mov { dst; src } -> Enc.nat b 0; hop b dst; hop b src
  | Rule.H_lea2 { dst; a; b = c } -> Enc.nat b 1; hop b dst; hop b a; hop b c
  | Rule.H_lea_imm { dst; a; imm } -> Enc.nat b 2; hop b dst; hop b a; pimm b imm
  | Rule.H_alu { op; dst; src } -> Enc.nat b 3; Enc.enum host_alu_ops b op; hop b dst; hop b src
  | Rule.H_shift { op; dst; amount } ->
    Enc.nat b 4; Enc.enum X.all_shift_ops b op; hop b dst; pimm b amount
  | Rule.H_shift_cl { op; dst; amount_src } ->
    Enc.nat b 5; Enc.enum X.all_shift_ops b op; hop b dst; hop b amount_src
  | Rule.H_not o -> Enc.nat b 6; hop b o
  | Rule.H_neg o -> Enc.nat b 7; hop b o
  | Rule.H_imul { dst; src } -> Enc.nat b 8; hop b dst; hop b src

(* The record pattern lists every field, so a field added to {!Rule.t}
   does not compile here until it is written. The parameter counts come
   before the instructions, so the decoder checks each index as it
   reads it. *)
let rule b { Rule.id; name; source; guest; host; n_reg_params; n_imm_params; carry_in;
             flags = { Rule.guest_writes; host_clobbers; convention }; require_distinct } =
  Enc.nat b id;
  Enc.string b name;
  Enc.option b Enc.string (match source with `Builtin -> None | `Learned s -> Some s);
  List.iter (Enc.nat b) [ n_reg_params; n_imm_params ];
  Enc.list b ginsn guest;
  Enc.list b hinsn host;
  List.iter (Enc.bool b) [ guest_writes; host_clobbers ];
  Enc.option b (Enc.enum Flagconv.all) convention;
  Enc.enum carries b carry_in;
  Enc.list b (Enc.pair Enc.nat Enc.nat) require_distinct

let save ruleset =
  let b = Enc.create () in
  Buffer.add_string b magic;
  Enc.list b rule (Ruleset.rules ruleset);
  Enc.contents b

let digest ruleset = Codec.fnv1a32 (save ruleset)

(* ---------- the decode walk ---------- *)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

let rule_of d =
  let id = Dec.nat d in
  let bad fmt = Printf.ksprintf (fun s -> corrupt "rule %d: %s" id s) fmt in
  let name = Dec.string d in
  let source = match Dec.option d Dec.string with None -> `Builtin | Some s -> `Learned s in
  let count what =
    match Dec.nat d with
    | n when n <= max_params -> n
    | n -> bad "%d %s parameters (at most %d)" n what max_params
  in
  let n_reg_params = count "register" in
  let n_imm_params = count "immediate" in
  let index what n d =
    match Dec.nat d with i when i < n -> i | i -> bad "%s parameter %d of %d" what i n
  in
  let reg = index "register" n_reg_params and imm = index "immediate" n_imm_params in
  let pimm ~guest d =
    match Dec.nat d with
    | 0 -> Rule.P_imm (imm d)
    | 1 when guest -> bad "shifted immediate parameter in the guest pattern"
    | 1 -> let i = imm d in Rule.P_imm_shl (i, Dec.nat d)
    | 2 -> Rule.Fixed (Dec.int d)
    | k -> bad "bad immediate %d" k
  in
  let gimm = pimm ~guest:true and himm = pimm ~guest:false in
  let op2 d =
    match Dec.nat d with
    | 0 -> Rule.G_imm (gimm d)
    | 1 -> Rule.G_reg (reg d)
    | (2 | 3) as k ->
      let rm = reg d in
      let kind = Dec.enum A.all_shift_kinds d in
      if k = 2 then Rule.G_shift { rm; kind; amount = gimm d }
      else Rule.G_shift_reg { rm; kind; rs = reg d }
    | k -> bad "bad operand 2 %d" k
  in
  let ginsn d =
    match Dec.nat d with
    | 0 ->
      let ops = Dec.list d (Dec.enum A.all_dp_ops) in
      let s = Dec.bool d in
      let rd = reg d in let rn = reg d in
      Rule.G_dp { ops; s; rd; rn; op2 = op2 d }
    | 1 ->
      let s = Dec.bool d in
      let rd = reg d in let rn = reg d in let rm = reg d in
      Rule.G_mul { s; rd; rn; rm; acc = Dec.option d reg }
    | (2 | 3) as k ->
      let rd = reg d in let imm = gimm d in
      if k = 2 then Rule.G_movw { rd; imm } else Rule.G_movt { rd; imm }
    | k -> bad "bad guest instruction %d" k
  in
  let hop d =
    match Dec.nat d with
    | 0 -> Rule.H_param (reg d)
    | 1 -> (
      match Dec.nat d with
      | k when k < Array.length Pinmap.scratch -> Rule.H_scratch k
      | k -> bad "scratch register %d of %d" k (Array.length Pinmap.scratch))
    | 2 -> Rule.H_imm (himm d)
    | k -> bad "bad host operand %d" k
  in
  (* what a template writes, or addresses through, is a register *)
  let hreg d = match hop d with Rule.H_imm _ -> bad "immediate in a register position" | o -> o in
  let hinsn d =
    match Dec.nat d with
    | 0 -> let dst = hreg d in Rule.H_mov { dst; src = hop d }
    | 1 -> let dst = hreg d in let a = hreg d in Rule.H_lea2 { dst; a; b = hreg d }
    | 2 -> let dst = hreg d in let a = hreg d in Rule.H_lea_imm { dst; a; imm = himm d }
    | 3 ->
      let op = Dec.enum host_alu_ops d in let dst = hreg d in Rule.H_alu { op; dst; src = hop d }
    | (4 | 5) as k ->
      let op = Dec.enum X.all_shift_ops d in
      let dst = hreg d in
      if k = 4 then Rule.H_shift { op; dst; amount = himm d }
      else Rule.H_shift_cl { op; dst; amount_src = hop d }
    | 6 -> Rule.H_not (hreg d)
    | 7 -> Rule.H_neg (hreg d)
    | 8 -> let dst = hreg d in Rule.H_imul { dst; src = hop d }
    | k -> bad "bad host instruction %d" k
  in
  let guest = Dec.list d ginsn in
  let host = Dec.list d hinsn in
  let guest_writes = Dec.bool d in let host_clobbers = Dec.bool d in
  let convention = Dec.option d (Dec.enum Flagconv.all) in
  let carry_in = Dec.enum carries d in
  let flags = { Rule.guest_writes; host_clobbers; convention } in
  { Rule.id; name; source; guest; host; n_reg_params; n_imm_params; flags; carry_in;
    require_distinct = Dec.list d (Dec.pair reg reg) }

(* Rule ids name rules in health and code sections, so no two rules
   share one. *)
let rules_of d =
  let rules = Dec.list d rule_of in
  let rec unique = function
    | a :: (b :: _ as tl) -> if a = b then corrupt "duplicate rule id %d" a else unique tl
    | _ -> ()
  in
  unique (List.sort compare (List.map (fun (r : Rule.t) -> r.Rule.id) rules));
  rules

let load bytes =
  if not (String.starts_with ~prefix:magic bytes) then
    Error (Printf.sprintf "not a rule set in this format (no %S header)" magic)
  else
    match Dec.whole ~pos:(String.length magic) ~name:"rules" bytes rules_of with
    | rules -> Ok (Ruleset.of_list rules)
    | exception Codec.Corrupt e -> Error e

let save_file ruleset path = Repro_common.Atomicio.write path (save ruleset)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | bytes -> load bytes
  | exception Sys_error e -> Error e
