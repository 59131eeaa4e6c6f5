open Repro_common

type slot =
  | Fixed of Word32.t                    (* already-encoded word *)
  | Branch of { cond : Cond.t; link : bool; target : string }
  | Movw_label of { rd : Insn.reg; target : string }
  | Movt_label of { rd : Insn.reg; target : string }

type t = {
  origin : Word32.t;
  mutable slots : slot list;  (* reversed *)
  mutable count : int;
  labels : (string, Word32.t) Hashtbl.t;
}

let create ?(origin = 0) () = { origin; slots = []; count = 0; labels = Hashtbl.create 64 }
let here t = Word32.add t.origin (4 * t.count)

let label t name =
  if Hashtbl.mem t.labels name then failwith ("Asm.label: redefined " ^ name);
  Hashtbl.replace t.labels name (here t)

let lookup t name =
  match Hashtbl.find_opt t.labels name with
  | Some a -> a
  | None -> failwith ("Asm.lookup: undefined label " ^ name)

(* Sorted so the listing is deterministic: Hashtbl iteration order
   depends on insertion history and hashing. *)
let labels t =
  Hashtbl.fold (fun name addr acc -> (addr, name) :: acc) t.labels []
  |> List.sort compare

let push_slot t s =
  t.slots <- s :: t.slots;
  t.count <- t.count + 1

let emit t insn = push_slot t (Fixed (Encode.encode insn))
let word t w = push_slot t (Fixed (Word32.mask w))

let branch_to t ?(cond = Cond.AL) ?(link = false) target =
  push_slot t (Branch { cond; link; target })

let mov32 t rd value =
  let value = Word32.mask value in
  emit t (Insn.make (Insn.Movw { rd; imm16 = value land 0xFFFF }));
  if value lsr 16 <> 0 then
    emit t (Insn.make (Insn.Movt { rd; imm16 = value lsr 16 }))

let mov32_label t rd target =
  push_slot t (Movw_label { rd; target });
  push_slot t (Movt_label { rd; target })

let resolve t index = function
  | Fixed w -> w
  | Branch { cond; link; target } ->
    let pc = Word32.add t.origin (4 * index) in
    let dest = lookup t target in
    let offset = (Word32.signed (Word32.sub dest pc) - 8) / 4 in
    Encode.encode { cond; op = Insn.B { link; offset } }
  | Movw_label { rd; target } ->
    let dest = lookup t target in
    Encode.encode (Insn.make (Insn.Movw { rd; imm16 = dest land 0xFFFF }))
  | Movt_label { rd; target } ->
    let dest = lookup t target in
    Encode.encode (Insn.make (Insn.Movt { rd; imm16 = dest lsr 16 }))

let assemble t =
  let slots = Array.of_list (List.rev t.slots) in
  (t.origin, Array.mapi (resolve t) slots)

let assemble_insns t =
  let origin, words = assemble t in
  ( origin,
    Array.map
      (fun w ->
        match Encode.decode w with Ok i -> i | Error _ -> Insn.make (Insn.Udf 0xFFFF))
      words )

(* Shorthands. *)

let dp t cond s op rd rn op2 = emit t { cond; op = Insn.Dp { op; s; rd; rn; op2 } }
let imm v = Insn.imm_operand_exn v
let rsi rm = Insn.Reg_shift_imm { rm; kind = Insn.LSL; amount = 0 }

let mov t ?(cond = Cond.AL) ?(s = false) rd v = dp t cond s Insn.MOV rd 0 (imm v)
let mov_r t ?(cond = Cond.AL) ?(s = false) rd rm = dp t cond s Insn.MOV rd 0 (rsi rm)
let add t ?(cond = Cond.AL) ?(s = false) rd rn v = dp t cond s Insn.ADD rd rn (imm v)
let add_r t ?(cond = Cond.AL) ?(s = false) rd rn rm = dp t cond s Insn.ADD rd rn (rsi rm)
let sub t ?(cond = Cond.AL) ?(s = false) rd rn v = dp t cond s Insn.SUB rd rn (imm v)
let sub_r t ?(cond = Cond.AL) ?(s = false) rd rn rm = dp t cond s Insn.SUB rd rn (rsi rm)
let rsb t ?(cond = Cond.AL) ?(s = false) rd rn v = dp t cond s Insn.RSB rd rn (imm v)
let and_ t ?(cond = Cond.AL) ?(s = false) rd rn v = dp t cond s Insn.AND rd rn (imm v)
let and_r t ?(cond = Cond.AL) ?(s = false) rd rn rm = dp t cond s Insn.AND rd rn (rsi rm)
let orr t ?(cond = Cond.AL) ?(s = false) rd rn v = dp t cond s Insn.ORR rd rn (imm v)
let orr_r t ?(cond = Cond.AL) ?(s = false) rd rn rm = dp t cond s Insn.ORR rd rn (rsi rm)
let eor_r t ?(cond = Cond.AL) ?(s = false) rd rn rm = dp t cond s Insn.EOR rd rn (rsi rm)

let lsl_ t ?(cond = Cond.AL) ?(s = false) rd rm amount =
  dp t cond s Insn.MOV rd 0 (Insn.Reg_shift_imm { rm; kind = Insn.LSL; amount })

let lsr_ t ?(cond = Cond.AL) ?(s = false) rd rm amount =
  dp t cond s Insn.MOV rd 0 (Insn.Reg_shift_imm { rm; kind = Insn.LSR; amount })

let cmp t ?(cond = Cond.AL) rn v = dp t cond false Insn.CMP 0 rn (imm v)
let cmp_r t ?(cond = Cond.AL) rn rm = dp t cond false Insn.CMP 0 rn (rsi rm)
let tst t ?(cond = Cond.AL) rn v = dp t cond false Insn.TST 0 rn (imm v)

let mul t ?(cond = Cond.AL) ?(s = false) rd rm rn =
  emit t { cond; op = Insn.Mul { s; rd; rn; rm; acc = None } }

let umull t ?(cond = Cond.AL) ?(s = false) rdlo rdhi rm rn =
  emit t { cond; op = Insn.Mull { signed = false; s; rdlo; rdhi; rn; rm } }

let clz t ?(cond = Cond.AL) rd rm = emit t { cond; op = Insn.Clz { rd; rm } }

let ldrs t ?(cond = Cond.AL) ?(half = false) ?(index = Insn.Offset) rd rn off =
  emit t { cond; op = Insn.Ldrs { half; rd; rn; off = Insn.Imm_off off; index } }

let smull t ?(cond = Cond.AL) ?(s = false) rdlo rdhi rm rn =
  emit t { cond; op = Insn.Mull { signed = true; s; rdlo; rdhi; rn; rm } }

let ldr t ?(cond = Cond.AL) ?(width = Insn.Word) ?(index = Insn.Offset) rd rn off =
  emit t { cond; op = Insn.Ldr { width; rd; rn; off = Insn.Imm_off off; index } }

let str t ?(cond = Cond.AL) ?(width = Insn.Word) ?(index = Insn.Offset) rd rn off =
  emit t { cond; op = Insn.Str { width; rd; rn; off = Insn.Imm_off off; index } }

let push t ?(cond = Cond.AL) mask =
  emit t { cond; op = Insn.Stm { kind = Insn.DB; rn = Insn.sp; writeback = true; regs = mask } }

let pop t ?(cond = Cond.AL) mask =
  emit t { cond; op = Insn.Ldm { kind = Insn.IA; rn = Insn.sp; writeback = true; regs = mask } }

let bx t ?(cond = Cond.AL) rm = emit t { cond; op = Insn.Bx rm }
let svc t ?(cond = Cond.AL) n = emit t { cond; op = Insn.Svc n }
let nop t = emit t (Insn.make Insn.Nop)
let mrs t ?(spsr = false) rd = emit t (Insn.make (Insn.Mrs { rd; spsr }))

let msr t ?(spsr = false) ?(flags = false) ?(control = false) rm =
  emit t (Insn.make (Insn.Msr { spsr; write_flags = flags; write_control = control; rm }))

let cps t ~disable = emit t (Insn.make (Insn.Cps { disable }))

let mcr t ?(opc1 = 0) ~crn ?(crm = 0) ?(opc2 = 0) rt =
  emit t (Insn.make (Insn.Mcr { opc1; rt; crn; crm; opc2 }))

let mrc t ?(opc1 = 0) ~crn ?(crm = 0) ?(opc2 = 0) rt =
  emit t (Insn.make (Insn.Mrc { opc1; rt; crn; crm; opc2 }))

let vmsr t rt = emit t (Insn.make (Insn.Vmsr { rt }))
let vmrs t rt = emit t (Insn.make (Insn.Vmrs { rt }))
let udf t n = emit t (Insn.make (Insn.Udf n))
let reg_mask regs = List.fold_left (fun acc r -> acc lor (1 lsl r)) 0 regs
