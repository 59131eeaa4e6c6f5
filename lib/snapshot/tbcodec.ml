(* The byte form of a translation block. See the interface. *)

module X = Repro_x86.Insn
module Tb = Repro_tcg.Tb
module Enc = Snapshot.Enc
module Dec = Snapshot.Dec

let corrupt fmt = Printf.ksprintf (fun s -> raise (Snapshot.Corrupt ("cache: " ^ s))) fmt

(* Enumerations by their position here. *)
let widths = X.[ W8; W16; W32 ]
let segs = X.[ Env; Ram; Tlb ]
let ccs = X.[ E; NE; B; AE; S; NS; O; NO; A; BE; GE; L; G; LE ]
let counters = X.[ Cnt_sync_op; Cnt_mmu_access; Cnt_irq_poll ]
let injected_kinds = [ `None; `Rule_corrupt; `Livelock ]

(* Position of [v] in [l]; constant constructors compare physically. *)
let rec index_from l v i =
  match l with x :: tl -> if x == v then i else index_from tl v (i + 1) | [] -> invalid_arg "Tbcodec.index"

let index l v = index_from l v 0

let nth l k =
  match if k < 0 then None else List.nth_opt l k with
  | Some v -> v
  | None -> corrupt "bad enumeration value %d" k

(* An instruction is one number for its constructor (the frequent ones
   first) and tag, then its fields in order. An operand is one number
   for its kind (0 Reg, 1 Imm, 2 Mem) and small fields (a register; a
   scale, segment, base and index), then its immediate or displacement.
   Most instructions take four or five bytes. The decoder is the
   encoder's walk read back. *)
let reg_code = function None -> 0 | Some r -> r + 1

let operand b = function
  | X.Reg r -> Enc.nat b (4 * r)
  | X.Imm n -> Enc.nat b 1; Enc.int b n
  | X.Mem m ->
    let regs = reg_code m.X.base + (17 * reg_code m.X.index) in
    Enc.nat b (2 + (4 * (m.X.scale + (16 * (index segs m.X.seg + (4 * regs))))));
    Enc.int b m.X.disp

let enc_insn b insn tag =
  let t = index X.all_tags tag in
  let ctor k = Enc.nat b ((k * 8) + t) and put = Enc.nat b and operand = operand b in
  match insn with
  | X.Label l -> ctor 0; put l
  | X.Mov { width; dst; src } -> ctor 1; put (index widths width); operand dst; operand src
  | X.Count (X.Cnt_guest_insn attr) -> ctor 2; put 0; put attr
  | X.Count c -> ctor 2; put (1 + index counters c)
  | X.Alu { op; dst; src } -> ctor 3; put (index X.all_alu_ops op); operand dst; operand src
  | X.Jcc { cc; target } -> ctor 4; put (index ccs cc); put target
  | X.Jmp l -> ctor 5; put l
  | X.Exit { slot } -> ctor 6; put slot
  | X.Call_helper { id } -> ctor 7; put id
  | X.Savef r -> ctor 8; put r
  | X.Loadf r -> ctor 9; put r
  | X.Lea { dst; addr } -> ctor 10; put dst; operand (X.Mem addr)
  | X.Setcc { cc; dst } -> ctor 11; put (index ccs cc); put dst
  | X.Cmovcc { cc; dst; src } -> ctor 12; put (index ccs cc); put dst; operand src
  | X.Shift { op; dst; amount = X.Sh_imm n } -> ctor 13; put (index X.all_shift_ops op); operand dst; put 1; Enc.int b n
  | X.Shift { op; dst; amount = X.Sh_cl } -> ctor 13; put (index X.all_shift_ops op); operand dst; put 0
  | X.Neg o -> ctor 14; operand o
  | X.Not o -> ctor 15; operand o
  | X.Imul { dst; src } -> ctor 16; put dst; operand src
  | X.Movzx8 { dst; src } -> ctor 17; put dst; operand src
  | X.Movzx16 { dst; src } -> ctor 18; put dst; operand src
  | X.Movsx8 { dst; src } -> ctor 19; put dst; operand src
  | X.Movsx16 { dst; src } -> ctor 20; put dst; operand src

let reg r =
  match Dec.nat r with k when k < 16 -> k | k -> corrupt "bad register %d" k

(* [None], or [Some] of a register, from [reg_code]'s number. *)
let reg_opt k = if k = 0 then None else Some (k - 1)

let operand r =
  let k = Dec.nat r in
  match k land 3 with
  | 0 when k < 64 -> X.Reg (k lsr 2)
  | 1 when k = 1 -> X.Imm (Dec.int r)
  | 2 when k lsr 8 < 17 * 17 ->
    let f = k lsr 2 in
    let seg = nth segs ((f lsr 4) land 3) and regs = f lsr 6 in
    let base = reg_opt (regs mod 17) and index = reg_opt (regs / 17) in
    X.Mem { X.seg; base; index; scale = f land 15; disp = Dec.int r }
  | _ -> corrupt "bad operand %d" k

(* One instruction; its tag goes to [tags.(k)]. *)
let dec_insn r tags k =
  let head = Dec.nat r in
  tags.(k) <- nth X.all_tags (head land 7);
  match head lsr 3 with
  | 0 -> X.Label (Dec.nat r)
  | 1 ->
    let width = Dec.enum widths r in
    let dst = operand r in
    X.Mov { width; dst; src = operand r }
  | 2 -> X.Count (match Dec.nat r with 0 -> X.Cnt_guest_insn (Dec.nat r) | c -> nth counters (c - 1))
  | 3 ->
    let op = Dec.enum X.all_alu_ops r in
    let dst = operand r in
    X.Alu { op; dst; src = operand r }
  | 4 -> let cc = Dec.enum ccs r in X.Jcc { cc; target = Dec.nat r }
  | 5 -> X.Jmp (Dec.nat r)
  | 6 -> X.Exit { slot = Dec.nat r }
  | 7 -> X.Call_helper { id = Dec.nat r }
  | 8 -> X.Savef (reg r)
  | 9 -> X.Loadf (reg r)
  | 10 -> (
    let dst = reg r in
    match operand r with X.Mem addr -> X.Lea { dst; addr } | _ -> corrupt "lea of a non-memory operand")
  | 11 -> let cc = Dec.enum ccs r in X.Setcc { cc; dst = reg r }
  | 12 ->
    let cc = Dec.enum ccs r in
    let dst = reg r in
    X.Cmovcc { cc; dst; src = operand r }
  | 13 ->
    let op = Dec.enum X.all_shift_ops r in
    let dst = operand r in
    X.Shift { op; dst; amount = (if Dec.nat r = 0 then X.Sh_cl else X.Sh_imm (Dec.int r)) }
  | 14 -> X.Neg (operand r)
  | 15 -> X.Not (operand r)
  | (16 | 17 | 18 | 19 | 20) as c -> (
    let dst = reg r in
    let src = operand r in
    match c with
    | 16 -> X.Imul { dst; src }
    | 17 -> X.Movzx8 { dst; src }
    | 18 -> X.Movzx16 { dst; src }
    | 19 -> X.Movsx8 { dst; src }
    | _ -> X.Movsx16 { dst; src })
  | c -> corrupt "unknown instruction constructor %d" c

let enc_tb b (tb : Tb.t) =
  List.iter (Enc.nat b) [ tb.Tb.id; tb.Tb.guest_pc ];
  List.iter (Enc.bool b) [ tb.Tb.privileged; tb.Tb.mmu_on ];
  let p = tb.Tb.prog in
  Enc.nat b (Array.length p.Repro_x86.Prog.code);
  Array.iteri (fun i insn -> enc_insn b insn p.Repro_x86.Prog.tags.(i)) p.Repro_x86.Prog.code;
  Enc.array b
    (fun b e -> Enc.int b (match e with Tb.Direct pc -> pc | Tb.Indirect -> -1 | Tb.Irq_deliver -> -2))
    tb.Tb.exits;
  (* guest instructions travel as their A32 words *)
  Enc.array b (fun b i -> Enc.nat b (Repro_arm.Encode.encode i)) tb.Tb.guest_insns;
  Enc.nat b tb.Tb.guest_len;
  Enc.array b (fun b (pc, skipped) -> Enc.nat b pc; Enc.array b Enc.nat skipped) tb.Tb.fault_producers;
  Enc.enum injected_kinds b tb.Tb.injected;
  Enc.array b Enc.int tb.Tb.prov

let dec_tb r =
  let id = Dec.nat r in
  let guest_pc = Dec.nat r in
  let privileged = Dec.bool r in
  let mmu_on = Dec.bool r in
  let n = Dec.count r in
  let tags = Array.make n X.Tag_compute in
  let prog = Repro_x86.Prog.of_code ~code:(Array.init n (dec_insn r tags)) ~tags in
  let exit r =
    match Dec.int r with
    | -1 -> Tb.Indirect
    | -2 -> Tb.Irq_deliver
    | pc when pc >= 0 && pc <= 0xFFFF_FFFF -> Tb.Direct pc
    | e -> corrupt "bad exit %d" e
  in
  let exits = Dec.array r exit in
  Array.iter
    (function
      | X.Exit { slot } when slot < 0 || slot >= Array.length exits -> corrupt "exit slot %d" slot
      | _ -> ())
    prog.Repro_x86.Prog.code;
  let guest_insns =
    Dec.array r (fun r ->
        let w = Dec.nat r in
        match Repro_arm.Encode.decode w with Ok i -> i | Error e -> corrupt "guest word %#x: %s" w e)
  in
  let guest_len = Dec.nat r in
  let fault_producers = Dec.array r (fun r -> let pc = Dec.nat r in (pc, Dec.array r Dec.nat)) in
  let injected = Dec.enum injected_kinds r in
  { Tb.id; guest_pc; privileged; mmu_on; prog; exits; links = [||]; guest_insns; guest_len;
    fault_producers; injected; prov = Dec.array r Dec.int; hot = 0; region_ids = [||] }
