module X = Repro_x86.Insn
open Term

type state = { regs : Term.t array; cf : Term.t; zf : Term.t; sf : Term.t; o_f : Term.t }

let initial seed =
  {
    regs = Array.init 16 seed;
    cf = var "cf";
    zf = var "zf";
    sf = var "sf";
    o_f = var "of";
  }

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let operand st = function
  | X.Reg r -> st.regs.(r)
  | X.Imm v -> const v
  | X.Mem _ -> unsupported "memory operand"

let write st op t =
  match op with
  | X.Reg r ->
    let regs = Array.copy st.regs in
    regs.(r) <- t;
    { st with regs }
  | X.Imm _ | X.Mem _ -> unsupported "non-register destination"

let sign_bit t = bin Shr t (const 31)
let is_zero t = bin Eq t (const 0)

(* A condition code over the flags, as a 0/1 term. *)
let cond st (cc : X.cc) =
  match cc with
  | X.E -> st.zf
  | X.NE -> bool_not st.zf
  | X.B -> st.cf
  | X.AE -> bool_not st.cf
  | X.S -> st.sf
  | X.NS -> bool_not st.sf
  | X.O -> st.o_f
  | X.NO -> bool_not st.o_f
  | X.A -> bin And (bool_not st.cf) (bool_not st.zf)
  | X.BE -> bin Or st.cf st.zf
  | X.GE -> bin Eq st.sf st.o_f
  | X.L -> bool_not (bin Eq st.sf st.o_f)
  | X.G -> bin And (bool_not st.zf) (bin Eq st.sf st.o_f)
  | X.LE -> bin Or st.zf (bool_not (bin Eq st.sf st.o_f))

let logic_flags st r = { st with zf = is_zero r; sf = sign_bit r; cf = const 0; o_f = const 0 }

let exec_one st (insn : X.t) =
  match insn with
  | X.Mov { width = X.W32; dst; src } -> write st dst (operand st src)
  | X.Mov { width = X.W8; _ } -> unsupported "byte mov"
  | X.Mov { width = X.W16; _ } -> unsupported "halfword mov"
  | X.Movzx8 _ | X.Movzx16 _ -> unsupported "movzx"
  | X.Movsx8 _ | X.Movsx16 _ -> unsupported "movsx"
  | X.Lea { dst; addr = { base; index; scale; disp; _ } } ->
    let b = match base with Some r -> st.regs.(r) | None -> const 0 in
    let i =
      match index with
      | Some r -> bin Mul st.regs.(r) (const scale)
      | None -> const 0
    in
    write st (X.Reg dst) (add (add b i) (const disp))
  | X.Alu { op; dst; src } -> (
    let a = operand st dst and b = operand st src in
    match op with
    | X.Add ->
      let r = add a b in
      let st' = write st dst r in
      {
        st' with
        cf = bin Ltu r a;
        zf = is_zero r;
        sf = sign_bit r;
        o_f = sign_bit (bin And (lnot (bin Xor a b)) (bin Xor a r));
      }
    | X.Adc ->
      let cin = st.cf in
      let r = add (add a b) cin in
      let s = add a b in
      let st' = write st dst r in
      {
        st' with
        cf = bin Or (bin Ltu s a) (bin Ltu r cin);
        zf = is_zero r;
        sf = sign_bit r;
        o_f = sign_bit (bin And (lnot (bin Xor a b)) (bin Xor a r));
      }
    | X.Sub ->
      let r = sub a b in
      let st' = write st dst r in
      {
        st' with
        cf = bin Ltu a b;
        zf = is_zero r;
        sf = sign_bit r;
        o_f = sign_bit (bin And (bin Xor a b) (bin Xor a r));
      }
    | X.Sbb ->
      let bin_t = st.cf in
      let r = sub (sub a b) bin_t in
      let st' = write st dst r in
      {
        st' with
        cf = bin Or (bin Ltu a b) (bin And (bin Eq a b) bin_t);
        zf = is_zero r;
        sf = sign_bit r;
        o_f = sign_bit (bin And (bin Xor a b) (bin Xor a r));
      }
    | X.And ->
      let r = bin And a b in
      logic_flags (write st dst r) r
    | X.Or ->
      let r = bin Or a b in
      logic_flags (write st dst r) r
    | X.Xor ->
      let r = bin Xor a b in
      logic_flags (write st dst r) r
    | X.Cmp ->
      let r = sub a b in
      {
        st with
        cf = bin Ltu a b;
        zf = is_zero r;
        sf = sign_bit r;
        o_f = sign_bit (bin And (bin Xor a b) (bin Xor a r));
      }
    | X.Test ->
      let r = bin And a b in
      logic_flags st r)
  | X.Neg o ->
    let v = operand st o in
    let r = sub (const 0) v in
    let st' = write st o r in
    {
      st' with
      cf = bool_not (is_zero v);
      zf = is_zero r;
      sf = sign_bit r;
      o_f = sign_bit (bin And (bin Xor (const 0) v) (bin Xor (const 0) r));
    }
  | X.Not o -> write st o (lnot (operand st o))
  | X.Imul { dst; src } ->
    let r = bin Mul st.regs.(dst) (operand st src) in
    logic_flags (write st (X.Reg dst) r) r
  | X.Shift { op; dst; amount } -> (
    let v = operand st dst in
    match amount with
    | X.Sh_imm 0 -> st
    | X.Sh_imm n ->
      let n = n land 31 in
      let o =
        match op with X.Shl -> Shl | X.Shr -> Shr | X.Sar -> Sar | X.Ror -> Ror
      in
      let r = bin o v (const n) in
      let st' = write st dst r in
      (match op with
      | X.Ror -> { st' with cf = sign_bit r }
      | X.Shl ->
        { st' with cf = bin And (bin Shr v (const (32 - n))) (const 1);
          zf = is_zero r; sf = sign_bit r; o_f = const 0 }
      | X.Shr | X.Sar ->
        { st' with cf = bin And (bin Shr v (const (n - 1))) (const 1);
          zf = is_zero r; sf = sign_bit r; o_f = const 0 })
    | X.Sh_cl ->
      (* Variable shifts mirror the interpreter: count = rcx & 31, and
         a zero count leaves flags (and value) untouched — modelled
         with Ite. *)
      let n = bin And st.regs.(X.rcx) (const 31) in
      let o =
        match op with X.Shl -> Shl | X.Shr -> Shr | X.Sar -> Sar | X.Ror -> Ror
      in
      let r = bin o v n in
      let r = ite (is_zero n) v r in
      write st dst r)
  | X.Setcc { cc; dst } -> write st (X.Reg dst) (cond st cc)
  | X.Cmovcc { cc; dst; src } ->
    write st (X.Reg dst) (ite (cond st cc) (operand st src) st.regs.(dst))
  | X.Savef r ->
    write st (X.Reg r)
      (bin Or
         (bin Or (bin Shl st.sf (const 31)) (bin Shl st.zf (const 30)))
         (bin Or (bin Shl st.cf (const 29)) (bin Shl st.o_f (const 28))))
  | X.Loadf r ->
    let v = st.regs.(r) in
    let bit k = bin And (bin Shr v (const k)) (const 1) in
    { st with sf = bit 31; zf = bit 30; cf = bit 29; o_f = bit 28 }
  | X.Jcc _ | X.Jmp _ | X.Label _ -> unsupported "control flow"
  | X.Call_helper _ -> unsupported "helper call"
  | X.Exit _ -> unsupported "exit"
  | X.Count _ -> st

let exec st insns = List.fold_left exec_one st insns
