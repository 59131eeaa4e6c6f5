(* The byte form of a translation block. See the interface. *)

module X = Repro_x86.Insn
module Tb = Repro_tcg.Tb

let corrupt fmt = Printf.ksprintf (fun s -> raise (Snapshot.Corrupt ("cache: " ^ s))) fmt

(* Enumerations by their position here. *)
let widths = X.[ W8; W16; W32 ]
let segs = X.[ Env; Ram; Tlb ]
let alu_ops = X.[ Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test ]
let shift_ops = X.[ Shl; Shr; Sar; Ror ]
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

(* Numbers are varints: 7 bits a byte, low bits first, the high bit set
   on every byte but the last. [put] takes a non-negative number,
   [put_int] any, zigzag-signed. *)
let rec put_u b u =
  if u lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr u)
  else begin
    Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
    put_u b (u lsr 7)
  end

let put b u = if u < 0 then invalid_arg "Tbcodec.put: negative" else put_u b u
let put_int b v = put_u b ((v lsl 1) lxor (v asr 62))
let put_bool b v = put b (Bool.to_int v)

let put_array b f a = put b (Array.length a); Array.iter (f b) a

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }
let finished r = r.pos = String.length r.s

let rec varint r acc shift =
  if r.pos >= String.length r.s || shift > 56 then corrupt "bad number at byte %d" r.pos;
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c < 0x80 then acc else varint r acc (shift + 7)

let get r = match varint r 0 0 with u when u >= 0 -> u | u -> corrupt "bad number %d" u

let get_int r =
  let u = varint r 0 0 in
  (u lsr 1) lxor -(u land 1)

let get_bool r = match get r with 0 -> false | 1 -> true | k -> corrupt "bad flag %d" k

(* A count of elements that each take a byte or more: no more than the
   bytes left. *)
let get_count r =
  let n = get r in
  if n > String.length r.s - r.pos then corrupt "count %d at byte %d" n r.pos;
  n

let get_array r f = Array.init (get_count r) (fun _ -> f r)
let enc_enum l b v = put b (Option.get (List.find_index (( = ) v) l))
let dec_enum l r = nth l (get r)

(* An instruction is one number for its constructor (the frequent ones
   first) and tag, then its fields in order. An operand is one number
   for its kind (0 Reg, 1 Imm, 2 Mem) and small fields (a register; a
   scale, segment, base and index), then its immediate or displacement.
   Most instructions take four or five bytes. The decoder is the
   encoder's walk read back. *)
let reg_code = function None -> 0 | Some r -> r + 1

let operand b = function
  | X.Reg r -> put b (4 * r)
  | X.Imm n -> put b 1; put_int b n
  | X.Mem m ->
    let regs = reg_code m.X.base + (17 * reg_code m.X.index) in
    put b (2 + (4 * (m.X.scale + (16 * (index segs m.X.seg + (4 * regs))))));
    put_int b m.X.disp

let enc_insn b insn tag =
  let t = index X.all_tags tag in
  let ctor k = put b ((k * 8) + t) and put = put b and operand = operand b in
  match insn with
  | X.Label l -> ctor 0; put l
  | X.Mov { width; dst; src } -> ctor 1; put (index widths width); operand dst; operand src
  | X.Count (X.Cnt_guest_insn attr) -> ctor 2; put 0; put attr
  | X.Count c -> ctor 2; put (1 + index counters c)
  | X.Alu { op; dst; src } -> ctor 3; put (index alu_ops op); operand dst; operand src
  | X.Jcc { cc; target } -> ctor 4; put (index ccs cc); put target
  | X.Jmp l -> ctor 5; put l
  | X.Exit { slot } -> ctor 6; put slot
  | X.Call_helper { id } -> ctor 7; put id
  | X.Savef r -> ctor 8; put r
  | X.Loadf r -> ctor 9; put r
  | X.Lea { dst; addr } -> ctor 10; put dst; operand (X.Mem addr)
  | X.Setcc { cc; dst } -> ctor 11; put (index ccs cc); put dst
  | X.Cmovcc { cc; dst; src } -> ctor 12; put (index ccs cc); put dst; operand src
  | X.Shift { op; dst; amount = X.Sh_imm n } -> ctor 13; put (index shift_ops op); operand dst; put 1; put_int b n
  | X.Shift { op; dst; amount = X.Sh_cl } -> ctor 13; put (index shift_ops op); operand dst; put 0
  | X.Neg o -> ctor 14; operand o
  | X.Not o -> ctor 15; operand o
  | X.Imul { dst; src } -> ctor 16; put dst; operand src
  | X.Movzx8 { dst; src } -> ctor 17; put dst; operand src
  | X.Movzx16 { dst; src } -> ctor 18; put dst; operand src
  | X.Movsx8 { dst; src } -> ctor 19; put dst; operand src
  | X.Movsx16 { dst; src } -> ctor 20; put dst; operand src

let pick r l = nth l (get r)

let reg r =
  match get r with k when k < 16 -> k | k -> corrupt "bad register %d" k

(* [None], or [Some] of a register, from [reg_code]'s number. *)
let reg_opt k = if k = 0 then None else Some (k - 1)

let operand r =
  let k = get r in
  match k land 3 with
  | 0 when k < 64 -> X.Reg (k lsr 2)
  | 1 when k = 1 -> X.Imm (get_int r)
  | 2 when k lsr 8 < 17 * 17 ->
    let f = k lsr 2 in
    let seg = nth segs ((f lsr 4) land 3) and regs = f lsr 6 in
    let base = reg_opt (regs mod 17) and index = reg_opt (regs / 17) in
    X.Mem { X.seg; base; index; scale = f land 15; disp = get_int r }
  | _ -> corrupt "bad operand %d" k

(* One instruction; its tag goes to [tags.(k)]. *)
let dec_insn r tags k =
  let head = get r in
  tags.(k) <- nth X.all_tags (head land 7);
  match head lsr 3 with
  | 0 -> X.Label (get r)
  | 1 ->
    let width = pick r widths in
    let dst = operand r in
    X.Mov { width; dst; src = operand r }
  | 2 -> X.Count (match get r with 0 -> X.Cnt_guest_insn (get r) | c -> nth counters (c - 1))
  | 3 ->
    let op = pick r alu_ops in
    let dst = operand r in
    X.Alu { op; dst; src = operand r }
  | 4 -> let cc = pick r ccs in X.Jcc { cc; target = get r }
  | 5 -> X.Jmp (get r)
  | 6 -> X.Exit { slot = get r }
  | 7 -> X.Call_helper { id = get r }
  | 8 -> X.Savef (reg r)
  | 9 -> X.Loadf (reg r)
  | 10 -> (
    let dst = reg r in
    match operand r with X.Mem addr -> X.Lea { dst; addr } | _ -> corrupt "lea of a non-memory operand")
  | 11 -> let cc = pick r ccs in X.Setcc { cc; dst = reg r }
  | 12 ->
    let cc = pick r ccs in
    let dst = reg r in
    X.Cmovcc { cc; dst; src = operand r }
  | 13 ->
    let op = pick r shift_ops in
    let dst = operand r in
    X.Shift { op; dst; amount = (if get r = 0 then X.Sh_cl else X.Sh_imm (get_int r)) }
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
  List.iter (put b) [ tb.Tb.id; tb.Tb.guest_pc ];
  List.iter (put_bool b) [ tb.Tb.privileged; tb.Tb.mmu_on ];
  let p = tb.Tb.prog in
  put b (Array.length p.Repro_x86.Prog.code);
  Array.iteri (fun i insn -> enc_insn b insn p.Repro_x86.Prog.tags.(i)) p.Repro_x86.Prog.code;
  put_array b
    (fun b e -> put_int b (match e with Tb.Direct pc -> pc | Tb.Indirect -> -1 | Tb.Irq_deliver -> -2))
    tb.Tb.exits;
  (* guest instructions travel as their A32 words *)
  put_array b (fun b i -> put b (Repro_arm.Encode.encode i)) tb.Tb.guest_insns;
  put b tb.Tb.guest_len;
  put_array b (fun b (pc, skipped) -> put b pc; put_array b put skipped) tb.Tb.fault_producers;
  put b (index injected_kinds tb.Tb.injected);
  put_array b put_int tb.Tb.prov

let dec_tb r =
  let id = get r in
  let guest_pc = get r in
  let privileged = get_bool r in
  let mmu_on = get_bool r in
  let n = get_count r in
  let tags = Array.make n X.Tag_compute in
  let prog = Repro_x86.Prog.of_code ~code:(Array.init n (dec_insn r tags)) ~tags in
  let exit r =
    match get_int r with
    | -1 -> Tb.Indirect
    | -2 -> Tb.Irq_deliver
    | pc when pc >= 0 && pc <= 0xFFFF_FFFF -> Tb.Direct pc
    | e -> corrupt "bad exit %d" e
  in
  let exits = get_array r exit in
  Array.iter
    (function
      | X.Exit { slot } when slot < 0 || slot >= Array.length exits -> corrupt "exit slot %d" slot
      | _ -> ())
    prog.Repro_x86.Prog.code;
  let guest_insns =
    get_array r (fun r ->
        let w = get r in
        match Repro_arm.Encode.decode w with Ok i -> i | Error e -> corrupt "guest word %#x: %s" w e)
  in
  let guest_len = get r in
  let fault_producers = get_array r (fun r -> let pc = get r in (pc, get_array r get)) in
  let injected = dec_enum injected_kinds r in
  { Tb.id; guest_pc; privileged; mmu_on; prog; exits; links = [||]; guest_insns; guest_len;
    fault_producers; injected; prov = get_array r get_int; hot = 0; region_ids = [||] }
