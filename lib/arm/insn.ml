open Repro_common

type reg = int

let sp = 13
let lr = 14
let pc = 15

let reg n =
  if n < 0 || n > 15 then invalid_arg (Printf.sprintf "Insn.reg: %d" n);
  n

type dp_op =
  | AND | EOR | SUB | RSB | ADD | ADC | SBC | RSC
  | TST | TEQ | CMP | CMN | ORR | MOV | BIC | MVN

let dp_op_is_test = function
  | TST | TEQ | CMP | CMN -> true
  | AND | EOR | SUB | RSB | ADD | ADC | SBC | RSC | ORR | MOV | BIC | MVN -> false

let dp_op_to_string = function
  | AND -> "and"
  | EOR -> "eor"
  | SUB -> "sub"
  | RSB -> "rsb"
  | ADD -> "add"
  | ADC -> "adc"
  | SBC -> "sbc"
  | RSC -> "rsc"
  | TST -> "tst"
  | TEQ -> "teq"
  | CMP -> "cmp"
  | CMN -> "cmn"
  | ORR -> "orr"
  | MOV -> "mov"
  | BIC -> "bic"
  | MVN -> "mvn"

let dp_op_code = function
  | AND -> 0
  | EOR -> 1
  | SUB -> 2
  | RSB -> 3
  | ADD -> 4
  | ADC -> 5
  | SBC -> 6
  | RSC -> 7
  | TST -> 8
  | TEQ -> 9
  | CMP -> 10
  | CMN -> 11
  | ORR -> 12
  | MOV -> 13
  | BIC -> 14
  | MVN -> 15

let dp_op_of_code = function
  | 0 -> AND
  | 1 -> EOR
  | 2 -> SUB
  | 3 -> RSB
  | 4 -> ADD
  | 5 -> ADC
  | 6 -> SBC
  | 7 -> RSC
  | 8 -> TST
  | 9 -> TEQ
  | 10 -> CMP
  | 11 -> CMN
  | 12 -> ORR
  | 13 -> MOV
  | 14 -> BIC
  | 15 -> MVN
  | n -> invalid_arg (Printf.sprintf "dp_op_of_code: %d" n)

type shift_kind = LSL | LSR | ASR | ROR

let shift_kind_code = function LSL -> 0 | LSR -> 1 | ASR -> 2 | ROR -> 3

let shift_kind_of_code = function
  | 0 -> LSL
  | 1 -> LSR
  | 2 -> ASR
  | 3 -> ROR
  | n -> invalid_arg (Printf.sprintf "shift_kind_of_code: %d" n)

let shift_kind_to_string = function
  | LSL -> "lsl"
  | LSR -> "lsr"
  | ASR -> "asr"
  | ROR -> "ror"

type operand2 =
  | Imm of { imm8 : int; rot : int }
  | Reg_shift_imm of { rm : reg; kind : shift_kind; amount : int }
  | Reg_shift_reg of { rm : reg; kind : shift_kind; rs : reg }

let imm_operand value =
  let value = Word32.mask value in
  let rec search rot =
    if rot > 15 then None
    else
      let rotated = Word32.rotate_right value (32 - (2 * rot)) in
      if rotated land 0xFF = rotated then Some (Imm { imm8 = rotated; rot })
      else search (rot + 1)
  in
  search 0

let imm_operand_exn value =
  match imm_operand value with
  | Some op2 -> op2
  | None -> invalid_arg (Printf.sprintf "imm_operand_exn: 0x%x not encodable" value)

(* Shift semantics shared by the interpreter and operand evaluation.
   [amount] is the effective shift count (may exceed 31 for
   register-specified shifts). [shift_value] is the shifted value alone,
   [apply_shift] adds the carry-out. *)
let shift_value kind value amount =
  if amount = 0 then value
  else
    match kind with
    | LSL -> if amount >= 32 then 0 else Word32.shift_left value amount
    | LSR -> if amount >= 32 then 0 else Word32.shift_right_logical value amount
    | ASR ->
      if amount < 32 then Word32.shift_right_arith value amount
      else if Word32.bit value 31 then Word32.max_value
      else 0
    | ROR -> Word32.rotate_right value amount

let apply_shift kind value amount ~carry =
  let shifted = shift_value kind value amount in
  let carry_out =
    if amount = 0 then carry
    else
      match kind with
      | LSL -> amount <= 32 && Word32.bit value (32 - amount)
      | LSR -> amount <= 32 && Word32.bit value (amount - 1)
      | ASR -> Word32.bit value (min amount 32 - 1)
      | ROR -> Word32.bit shifted 31
  in
  (shifted, carry_out)

(* Operand 2 is always a word shifted by an amount: an immediate is
   [imm8] rotated right by [2*rot], which is also its carry rule (the
   carry passes through when [rot = 0]). [read env r] reads register
   [r]; with a top-level [read] the value half builds no closure and
   no pair. *)
let operand2_kind = function
  | Imm _ -> ROR
  | Reg_shift_imm { kind; _ } | Reg_shift_reg { kind; _ } -> kind

let operand2_base read env = function
  | Imm { imm8; _ } -> imm8
  | Reg_shift_imm { rm; _ } | Reg_shift_reg { rm; _ } -> read env rm

let operand2_amount read env = function
  | Imm { rot; _ } -> 2 * rot
  | Reg_shift_imm { amount; _ } -> amount
  | Reg_shift_reg { rs; _ } ->
    (* Model simplification (see DESIGN.md): register-specified shift
       amounts are taken mod 32, matching the host's shift semantics. *)
    read env rs land 0x1F

let operand2_word read env op2 =
  shift_value (operand2_kind op2) (operand2_base read env op2)
    (operand2_amount read env op2)

let apply_regs regs r = regs r

let operand2_value op2 regs ~carry =
  apply_shift (operand2_kind op2)
    (operand2_base apply_regs regs op2)
    (operand2_amount apply_regs regs op2)
    ~carry

type width = Word | Byte | Half
type index_mode = Offset | Pre_indexed | Post_indexed

type mem_offset =
  | Imm_off of int
  | Reg_off of { rm : reg; kind : shift_kind; amount : int; subtract : bool }

type ldm_kind = IA | DB

type op =
  | Dp of { op : dp_op; s : bool; rd : reg; rn : reg; op2 : operand2 }
  | Mul of { s : bool; rd : reg; rn : reg; rm : reg; acc : reg option }
  | Mull of { signed : bool; s : bool; rdlo : reg; rdhi : reg; rn : reg; rm : reg }
  | Clz of { rd : reg; rm : reg }
  | Ldr of { width : width; rd : reg; rn : reg; off : mem_offset; index : index_mode }
  | Ldrs of { half : bool; rd : reg; rn : reg; off : mem_offset; index : index_mode }
  | Str of { width : width; rd : reg; rn : reg; off : mem_offset; index : index_mode }
  | Ldm of { kind : ldm_kind; rn : reg; writeback : bool; regs : int }
  | Stm of { kind : ldm_kind; rn : reg; writeback : bool; regs : int }
  | B of { link : bool; offset : int }
  | Bx of reg
  | Movw of { rd : reg; imm16 : int }
  | Movt of { rd : reg; imm16 : int }
  | Mrs of { rd : reg; spsr : bool }
  | Msr of { spsr : bool; write_flags : bool; write_control : bool; rm : reg }
  | Svc of int
  | Cps of { disable : bool }
  | Mcr of { opc1 : int; rt : reg; crn : int; crm : int; opc2 : int }
  | Mrc of { opc1 : int; rt : reg; crn : int; crm : int; opc2 : int }
  | Vmsr of { rt : reg }
  | Vmrs of { rt : reg }
  | Nop
  | Udf of int

type t = { cond : Cond.t; op : op }

let make ?(cond = Cond.AL) op = { cond; op }

let is_system_level { op; _ } =
  match op with
  | Mrs _ | Msr _ | Svc _ | Cps _ | Mcr _ | Mrc _ | Vmsr _ | Vmrs _ | Udf _ -> true
  | Dp _ | Mul _ | Mull _ | Clz _ | Ldr _ | Ldrs _ | Str _ | Ldm _ | Stm _ | B _
  | Bx _ | Movw _ | Movt _ | Nop -> false

let is_memory_access { op; _ } =
  match op with
  | Ldr _ | Ldrs _ | Str _ | Ldm _ | Stm _ -> true
  | Dp _ | Mul _ | Mull _ | Clz _ | B _ | Bx _ | Movw _ | Movt _ | Mrs _ | Msr _
  | Svc _ | Cps _ | Mcr _ | Mrc _ | Vmsr _ | Vmrs _ | Nop | Udf _ -> false

let writes_flags { op; _ } =
  match op with
  | Dp { op; s; _ } -> s || dp_op_is_test op
  | Mul { s; _ } | Mull { s; _ } -> s
  | Vmrs { rt } -> rt = pc
  | Msr { spsr = false; write_flags = true; _ } -> true
  | Msr _ | Clz _ | Ldr _ | Ldrs _ | Str _ | Ldm _ | Stm _ | B _ | Bx _ | Movw _
  | Movt _ | Mrs _ | Svc _ | Cps _ | Mcr _ | Mrc _ | Vmsr _ | Nop | Udf _ -> false

let reads_flags { cond; op } =
  cond <> Cond.AL
  ||
  match op with
  | Dp { op = ADC | SBC | RSC; _ } -> true
  | Mrs { spsr = false; _ } -> true
  | Dp _ | Mul _ | Mull _ | Clz _ | Ldr _ | Ldrs _ | Str _ | Ldm _ | Stm _ | B _
  | Bx _ | Movw _ | Movt _ | Mrs _ | Msr _ | Svc _ | Cps _ | Mcr _ | Mrc _
  | Vmsr _ | Vmrs _ | Nop | Udf _ -> false

let bitmask r = 1 lsl r

let popcount mask =
  let n = ref 0 in
  for r = 0 to 15 do
    if mask land (1 lsl r) <> 0 then incr n
  done;
  !n

let op2_uses = function
  | Imm _ -> 0
  | Reg_shift_imm { rm; _ } -> bitmask rm
  | Reg_shift_reg { rm; rs; _ } -> bitmask rm lor bitmask rs

let defs { op; _ } =
  match op with
  | Dp { op = dpo; rd; _ } -> if dp_op_is_test dpo then 0 else bitmask rd
  | Mul { rd; _ } -> bitmask rd
  | Mull { rdlo; rdhi; _ } -> bitmask rdlo lor bitmask rdhi
  | Clz { rd; _ } -> bitmask rd
  | Ldr { rd; rn; index; _ } | Ldrs { rd; rn; index; _ } ->
    bitmask rd lor (match index with Offset -> 0 | Pre_indexed | Post_indexed -> bitmask rn)
  | Str { rn; index; _ } ->
    (match index with Offset -> 0 | Pre_indexed | Post_indexed -> bitmask rn)
  | Ldm { rn; writeback; regs; _ } -> regs lor if writeback then bitmask rn else 0
  | Stm { rn; writeback; _ } -> if writeback then bitmask rn else 0
  | B { link; _ } -> (if link then bitmask lr else 0) lor bitmask pc
  | Bx _ -> bitmask pc
  | Movw { rd; _ } | Movt { rd; _ } -> bitmask rd
  | Mrs { rd; _ } -> bitmask rd
  | Mrc { rt; _ } -> if rt = pc then 0 else bitmask rt
  | Vmrs { rt } -> if rt = pc then 0 else bitmask rt
  | Msr _ | Svc _ | Cps _ | Mcr _ | Vmsr _ | Nop | Udf _ -> 0

let uses { op; _ } =
  match op with
  | Dp { op = dpo; rn; op2; _ } ->
    let rn_use = match dpo with MOV | MVN -> 0 | _ -> bitmask rn in
    rn_use lor op2_uses op2
  | Mul { rn; rm; acc; _ } ->
    bitmask rn lor bitmask rm lor (match acc with Some ra -> bitmask ra | None -> 0)
  | Mull { rn; rm; _ } -> bitmask rn lor bitmask rm
  | Clz { rm; _ } -> bitmask rm
  | Ldr { rn; off; _ } | Ldrs { rn; off; _ } ->
    bitmask rn lor (match off with Imm_off _ -> 0 | Reg_off { rm; _ } -> bitmask rm)
  | Str { rd; rn; off; _ } ->
    bitmask rd lor bitmask rn
    lor (match off with Imm_off _ -> 0 | Reg_off { rm; _ } -> bitmask rm)
  | Ldm { rn; _ } -> bitmask rn
  | Stm { rn; regs; _ } -> bitmask rn lor regs
  | B _ -> 0
  | Bx rm -> bitmask rm
  | Movw _ -> 0
  | Movt { rd; _ } -> bitmask rd
  | Mrs _ -> 0
  | Msr { rm; _ } -> bitmask rm
  | Mcr { rt; _ } -> bitmask rt
  | Vmsr { rt } -> bitmask rt
  | Svc _ | Cps _ | Mrc _ | Vmrs _ | Nop | Udf _ -> 0

let is_branch t =
  match t.op with
  | B _ | Bx _ -> true
  | _ -> defs t land bitmask pc <> 0

(* ---------- coverage classes ----------

   The opcode-class enumeration of the translation-quality
   observatory: every decoded instruction maps to exactly one class,
   derived from the one [op] enumeration above. [classify] matches
   every [op] constructor explicitly (no wildcard), so adding a new
   decoder variant without deciding its coverage class is a compile
   error under the dev profile's warning-8-as-error — the coverage
   matrix can never silently drift from the decoder. *)

type cls =
  | C_dp of dp_op
  | C_mul
  | C_mull
  | C_clz
  | C_ldr
  | C_ldrs
  | C_str
  | C_ldm
  | C_stm
  | C_b
  | C_bx
  | C_movw
  | C_movt
  | C_mrs
  | C_msr
  | C_svc
  | C_cps
  | C_mcr
  | C_mrc
  | C_vmsr
  | C_vmrs
  | C_nop
  | C_udf

let classify { op; _ } =
  match op with
  | Dp { op; _ } -> C_dp op
  | Mul _ -> C_mul
  | Mull _ -> C_mull
  | Clz _ -> C_clz
  | Ldr _ -> C_ldr
  | Ldrs _ -> C_ldrs
  | Str _ -> C_str
  | Ldm _ -> C_ldm
  | Stm _ -> C_stm
  | B _ -> C_b
  | Bx _ -> C_bx
  | Movw _ -> C_movw
  | Movt _ -> C_movt
  | Mrs _ -> C_mrs
  | Msr _ -> C_msr
  | Svc _ -> C_svc
  | Cps _ -> C_cps
  | Mcr _ -> C_mcr
  | Mrc _ -> C_mrc
  | Vmsr _ -> C_vmsr
  | Vmrs _ -> C_vmrs
  | Nop -> C_nop
  | Udf _ -> C_udf

(* Non-dp classes in fixed index order after the 16 dp opcodes. *)
let non_dp_classes =
  [
    C_mul; C_mull; C_clz; C_ldr; C_ldrs; C_str; C_ldm; C_stm; C_b; C_bx; C_movw;
    C_movt; C_mrs; C_msr; C_svc; C_cps; C_mcr; C_mrc; C_vmsr; C_vmrs; C_nop;
    C_udf;
  ]

let all_classes =
  List.map (fun op -> C_dp op) (List.init 16 dp_op_of_code) @ non_dp_classes

let n_classes = List.length all_classes

let cls_index = function
  | C_dp op -> dp_op_code op
  | c ->
    let rec find i = function
      | [] -> assert false
      | hd :: tl -> if hd = c then i else find (i + 1) tl
    in
    16 + find 0 non_dp_classes

let cls_of_index i =
  if i < 0 || i >= n_classes then invalid_arg (Printf.sprintf "cls_of_index: %d" i)
  else if i < 16 then C_dp (dp_op_of_code i)
  else List.nth non_dp_classes (i - 16)

let cls_name = function
  | C_dp op -> "dp." ^ dp_op_to_string op
  | C_mul -> "mul"
  | C_mull -> "mull"
  | C_clz -> "clz"
  | C_ldr -> "ldr"
  | C_ldrs -> "ldrs"
  | C_str -> "str"
  | C_ldm -> "ldm"
  | C_stm -> "stm"
  | C_b -> "b"
  | C_bx -> "bx"
  | C_movw -> "movw"
  | C_movt -> "movt"
  | C_mrs -> "mrs"
  | C_msr -> "msr"
  | C_svc -> "svc"
  | C_cps -> "cps"
  | C_mcr -> "mcr"
  | C_mrc -> "mrc"
  | C_vmsr -> "vmsr"
  | C_vmrs -> "vmrs"
  | C_nop -> "nop"
  | C_udf -> "udf"

(* Idiom: a small within-class shape refinement (operand form, index
   mode, S bit), so the opportunity report can name the concrete
   pattern a new rule would have to cover. Bit 3 is "conditional" for
   every class; bits 0-2 are the per-class shape. *)

let idiom_conditional = 8

let idiom_of { cond; op } =
  let shape =
    match op with
    | Dp { s; op2; _ } ->
      let form =
        match op2 with
        | Imm _ -> 0
        | Reg_shift_imm { amount = 0; kind = LSL; _ } -> 1
        | Reg_shift_imm _ -> 2
        | Reg_shift_reg _ -> 3
      in
      form lor (if s then 4 else 0)
    | Ldr { index; off; _ } | Ldrs { index; off; _ } | Str { index; off; _ } ->
      (match index with Offset -> 0 | Pre_indexed -> 1 | Post_indexed -> 2)
      lor (match off with Imm_off _ -> 0 | Reg_off _ -> 4)
    | Ldm { writeback; regs; _ } ->
      (if writeback then 1 else 0) lor if regs land (1 lsl pc) <> 0 then 2 else 0
    | Stm { writeback; _ } -> if writeback then 1 else 0
    | Mul { s; acc; _ } -> (if s then 1 else 0) lor if acc <> None then 2 else 0
    | Mull { signed; s; _ } -> (if s then 1 else 0) lor if signed then 2 else 0
    | B { link; _ } -> if link then 1 else 0
    | Msr { write_control; _ } -> if write_control then 1 else 0
    | Clz _ | Bx _ | Movw _ | Movt _ | Mrs _ | Svc _ | Cps _ | Mcr _ | Mrc _
    | Vmsr _ | Vmrs _ | Nop | Udf _ -> 0
  in
  shape lor if cond <> Cond.AL then idiom_conditional else 0

let n_idioms = 16

let idiom_name cls idiom =
  let shape = idiom land lnot idiom_conditional in
  let base =
    match cls with
    | C_dp _ ->
      let form =
        match shape land 3 with
        | 0 -> "imm"
        | 1 -> "reg"
        | 2 -> "shift"
        | _ -> "regshift"
      in
      if shape land 4 <> 0 then form ^ ".s" else form
    | C_ldr | C_ldrs | C_str ->
      let index =
        match shape land 3 with 0 -> "off" | 1 -> "pre" | _ -> "post"
      in
      index ^ if shape land 4 <> 0 then ".reg" else ".imm"
    | C_ldm ->
      String.concat "."
        (("plain" :: (if shape land 1 <> 0 then [ "wb" ] else []))
        @ if shape land 2 <> 0 then [ "pc" ] else [])
    | C_stm -> if shape land 1 <> 0 then "wb" else "plain"
    | C_mul ->
      String.concat "."
        (("plain" :: (if shape land 1 <> 0 then [ "s" ] else []))
        @ if shape land 2 <> 0 then [ "acc" ] else [])
    | C_mull ->
      String.concat "."
        (("plain" :: (if shape land 1 <> 0 then [ "s" ] else []))
        @ if shape land 2 <> 0 then [ "signed" ] else [])
    | C_b -> if shape land 1 <> 0 then "link" else "plain"
    | C_msr -> if shape land 1 <> 0 then "control" else "flags"
    | C_clz | C_bx | C_movw | C_movt | C_mrs | C_svc | C_cps | C_mcr | C_mrc
    | C_vmsr | C_vmrs | C_nop | C_udf -> "plain"
  and cond = idiom land idiom_conditional <> 0 in
  if cond then base ^ ".cond" else base

let pp_reg ppf r =
  if r = 13 then Format.pp_print_string ppf "sp"
  else if r = 14 then Format.pp_print_string ppf "lr"
  else if r = 15 then Format.pp_print_string ppf "pc"
  else Format.fprintf ppf "r%d" r

let pp_op2 ppf = function
  | Imm { imm8; rot } -> Format.fprintf ppf "#%d" (Word32.rotate_right imm8 (2 * rot))
  | Reg_shift_imm { rm; kind; amount } ->
    if amount = 0 && kind = LSL then pp_reg ppf rm
    else Format.fprintf ppf "%a, %s #%d" pp_reg rm (shift_kind_to_string kind) amount
  | Reg_shift_reg { rm; kind; rs } ->
    Format.fprintf ppf "%a, %s %a" pp_reg rm (shift_kind_to_string kind) pp_reg rs

let pp_mem ppf rn off index =
  let pp_off ppf = function
    | Imm_off 0 -> ()
    | Imm_off n -> Format.fprintf ppf ", #%d" n
    | Reg_off { rm; kind; amount; subtract } ->
      let sign = if subtract then "-" else "" in
      if amount = 0 && kind = LSL then Format.fprintf ppf ", %s%a" sign pp_reg rm
      else
        Format.fprintf ppf ", %s%a, %s #%d" sign pp_reg rm (shift_kind_to_string kind)
          amount
  in
  match index with
  | Offset -> Format.fprintf ppf "[%a%a]" pp_reg rn pp_off off
  | Pre_indexed -> Format.fprintf ppf "[%a%a]!" pp_reg rn pp_off off
  | Post_indexed -> (
    match off with
    | Imm_off n -> Format.fprintf ppf "[%a], #%d" pp_reg rn n
    | Reg_off _ -> Format.fprintf ppf "[%a]%a" pp_reg rn pp_off off)

let pp_reglist ppf regs =
  let items = ref [] in
  for r = 15 downto 0 do
    if regs land (1 lsl r) <> 0 then items := r :: !items
  done;
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_reg)
    !items

let pp ppf { cond; op } =
  let c = Cond.to_string cond in
  match op with
  | Dp { op = dpo; s; rd; rn; op2 } ->
    let mnem = dp_op_to_string dpo in
    if dp_op_is_test dpo then Format.fprintf ppf "%s%s %a, %a" mnem c pp_reg rn pp_op2 op2
    else (
      let sfx = if s then "s" else "" in
      match dpo with
      | MOV | MVN -> Format.fprintf ppf "%s%s%s %a, %a" mnem c sfx pp_reg rd pp_op2 op2
      | _ ->
        Format.fprintf ppf "%s%s%s %a, %a, %a" mnem c sfx pp_reg rd pp_reg rn pp_op2 op2)
  | Mul { s; rd; rn; rm; acc = None } ->
    Format.fprintf ppf "mul%s%s %a, %a, %a" c (if s then "s" else "") pp_reg rd pp_reg rm
      pp_reg rn
  | Mul { s; rd; rn; rm; acc = Some ra } ->
    Format.fprintf ppf "mla%s%s %a, %a, %a, %a" c (if s then "s" else "") pp_reg rd
      pp_reg rm pp_reg rn pp_reg ra
  | Mull { signed; s; rdlo; rdhi; rn; rm } ->
    Format.fprintf ppf "%smull%s%s %a, %a, %a, %a"
      (if signed then "s" else "u")
      c (if s then "s" else "") pp_reg rdlo pp_reg rdhi pp_reg rm pp_reg rn
  | Clz { rd; rm } -> Format.fprintf ppf "clz%s %a, %a" c pp_reg rd pp_reg rm
  | Ldr { width; rd; rn; off; index } ->
    Format.fprintf ppf "ldr%s%s %a, " c
      (match width with Word -> "" | Byte -> "b" | Half -> "h")
      pp_reg rd;
    pp_mem ppf rn off index
  | Ldrs { half; rd; rn; off; index } ->
    Format.fprintf ppf "ldrs%s%s %a, " (if half then "h" else "b") c pp_reg rd;
    pp_mem ppf rn off index
  | Str { width; rd; rn; off; index } ->
    Format.fprintf ppf "str%s%s %a, " c
      (match width with Word -> "" | Byte -> "b" | Half -> "h")
      pp_reg rd;
    pp_mem ppf rn off index
  | Ldm { kind; rn; writeback; regs } ->
    Format.fprintf ppf "ldm%s%s %a%s, %a" c
      (match kind with IA -> "ia" | DB -> "db")
      pp_reg rn
      (if writeback then "!" else "")
      pp_reglist regs
  | Stm { kind; rn; writeback; regs } ->
    Format.fprintf ppf "stm%s%s %a%s, %a" c
      (match kind with IA -> "ia" | DB -> "db")
      pp_reg rn
      (if writeback then "!" else "")
      pp_reglist regs
  | B { link; offset } ->
    Format.fprintf ppf "b%s%s .%+d" (if link then "l" else "") c offset
  | Bx rm -> Format.fprintf ppf "bx%s %a" c pp_reg rm
  | Movw { rd; imm16 } -> Format.fprintf ppf "movw%s %a, #%d" c pp_reg rd imm16
  | Movt { rd; imm16 } -> Format.fprintf ppf "movt%s %a, #%d" c pp_reg rd imm16
  | Mrs { rd; spsr } ->
    Format.fprintf ppf "mrs%s %a, %s" c pp_reg rd (if spsr then "spsr" else "cpsr")
  | Msr { spsr; write_flags; write_control; rm } ->
    let fields =
      match (write_flags, write_control) with
      | true, true -> "fc"
      | true, false -> "f"
      | false, true -> "c"
      | false, false -> ""
    in
    Format.fprintf ppf "msr%s %s_%s, %a" c (if spsr then "spsr" else "cpsr") fields
      pp_reg rm
  | Svc imm -> Format.fprintf ppf "svc%s #%d" c imm
  | Cps { disable } -> Format.fprintf ppf "cps%s i" (if disable then "id" else "ie")
  | Mcr { opc1; rt; crn; crm; opc2 } ->
    Format.fprintf ppf "mcr%s p15, %d, %a, c%d, c%d, %d" c opc1 pp_reg rt crn crm opc2
  | Mrc { opc1; rt; crn; crm; opc2 } ->
    Format.fprintf ppf "mrc%s p15, %d, %a, c%d, c%d, %d" c opc1 pp_reg rt crn crm opc2
  | Vmsr { rt } -> Format.fprintf ppf "vmsr%s fpscr, %a" c pp_reg rt
  | Vmrs { rt } ->
    if rt = pc then Format.fprintf ppf "vmrs%s apsr_nzcv, fpscr" c
    else Format.fprintf ppf "vmrs%s %a, fpscr" c pp_reg rt
  | Nop -> Format.fprintf ppf "nop%s" c
  | Udf imm -> Format.fprintf ppf "udf #%d" imm

let to_string t = Format.asprintf "%a" pp t
let equal (a : t) (b : t) = a = b
