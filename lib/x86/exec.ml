open Repro_common

type t = {
  regs : int array;
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Ram.t;
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
  mutable poison_counter : int;
}

exception Helper_stop of { code : int; arg : int }
exception Fuel_exhausted of { spent : int }

let create ?(env_slots = 64) ?(ram_size = 1 lsl 20) ?(tlb_words = 768) () =
  {
    regs = Array.make 16 0;
    cf = false;
    zf = false;
    sf = false;
    o_f = false;
    env = Array.make env_slots 0;
    ram = Ram.create ram_size;
    tlb = Array.make tlb_words 0;
    stats = Stats.create ();
    helper = (fun _ _ -> failwith "Exec: no helper dispatcher installed");
    poison_counter = 0;
  }

let get_flags_word t =
  let b cond bit = if cond then 1 lsl bit else 0 in
  b t.sf 31 lor b t.zf 30 lor b t.cf 29 lor b t.o_f 28

let set_flags_word t w =
  t.sf <- Word32.bit w 31;
  t.zf <- Word32.bit w 30;
  t.cf <- Word32.bit w 29;
  t.o_f <- Word32.bit w 28

(* Deterministic, obviously-wrong values: coordination bugs surface as
   0xBAD... register contents in differential tests. *)
let poison_caller_saved t =
  for r = 0 to 15 do
    if r <> Insn.rbp && r <> Insn.rsp then begin
      t.poison_counter <- t.poison_counter + 1;
      t.regs.(r) <- Word32.mask (0xBAD0000 + t.poison_counter)
    end
  done

type outcome = Exited of int | Stopped of { code : int; arg : int }

(* ---------- compilation to threaded code ----------

   Each instruction compiles once, the first time its program runs, to
   a closure over the context that performs it and returns [fallthrough]
   to continue with the next op, the index of the op a taken jump
   goes to, or [lnot slot] for [Exit { slot }]. Operand kinds,
   constant addresses, condition codes, tags and label targets are
   resolved here, so running a TB decodes nothing. *)

type op = t -> int

let fallthrough = max_int

type kernel = {
  slots : int array;  (** [by_tag] slot charged before op [k]; [-1] for a pseudo *)
  ops : op array;
}

(* [kernel] is [unbuilt] until the program first runs. A plain field,
   not a [Lazy.t]: two domains that first run one shared program at
   once each build an equal kernel, where a concurrent [Lazy.force]
   raises [Lazy.Undefined]. *)
type program = { code : Insn.t array; tags : Insn.tag array; mutable kernel : kernel }

let unbuilt = { slots = [||]; ops = [||] }

(* Env and Tlb are arrays of 32-bit slots: a word access must be
   slot-aligned, and a sub-word access reads or writes the byte lane
   [addr land 3] of its slot without crossing into the next one. *)
let word_slot addr =
  assert (addr land 3 = 0);
  addr lsr 2

let lane addr ~len =
  let lo = 8 * (addr land 3) in
  assert (lo + len <= 32);
  lo

let compile_addr ({ base; index; scale; disp; seg = _ } : Insn.mem) : t -> int =
  match (base, index) with
  | None, None ->
    let a = Word32.mask disp in
    fun _ -> a
  | Some b, None -> fun c -> Word32.mask (c.regs.(b) + disp)
  | None, Some i -> fun c -> Word32.mask ((c.regs.(i) * scale) + disp)
  | Some b, Some i -> fun c -> Word32.mask (c.regs.(b) + (c.regs.(i) * scale) + disp)

(* The slot of a constant, slot-aligned Env/Tlb address. Anything else
   is resolved (and alignment-checked) when the access executes. *)
let const_slot ({ base; index; disp; _ } : Insn.mem) =
  let a = Word32.mask disp in
  if base = None && index = None && a land 3 = 0 then Some (a lsr 2) else None

(* An [Env]/[Tlb] word access at a constant address, or a [Ram] access
   at [base + disp], needs no address closure. *)
let read32 (m : Insn.mem) : t -> int =
  match (m.seg, const_slot m) with
  | Insn.Env, Some i -> fun c -> c.env.(i)
  | Insn.Tlb, Some i -> fun c -> c.tlb.(i)
  | Insn.Env, None ->
    let addr = compile_addr m in
    fun c -> c.env.(word_slot (addr c))
  | Insn.Tlb, None ->
    let addr = compile_addr m in
    fun c -> c.tlb.(word_slot (addr c))
  | Insn.Ram, _ -> (
    match (m.base, m.index) with
    | Some b, None ->
      let disp = m.disp in
      fun c -> Ram.get32 c.ram (Word32.mask (c.regs.(b) + disp))
    | _ ->
      let addr = compile_addr m in
      fun c -> Ram.get32 c.ram (addr c))

let write32 (m : Insn.mem) : t -> int -> unit =
  match (m.seg, const_slot m) with
  | Insn.Env, Some i -> fun c v -> c.env.(i) <- Word32.mask v
  | Insn.Tlb, Some i -> fun c v -> c.tlb.(i) <- Word32.mask v
  | Insn.Env, None ->
    let addr = compile_addr m in
    fun c v -> c.env.(word_slot (addr c)) <- Word32.mask v
  | Insn.Tlb, None ->
    let addr = compile_addr m in
    fun c v -> c.tlb.(word_slot (addr c)) <- Word32.mask v
  | Insn.Ram, _ -> (
    match (m.base, m.index) with
    | Some b, None ->
      let disp = m.disp in
      fun c v -> Ram.set32 c.ram (Word32.mask (c.regs.(b) + disp)) v
    | _ ->
      let addr = compile_addr m in
      fun c v -> Ram.set32 c.ram (addr c) v)

(* Sub-word ([len] = 8 or 16) memory access, zero-extended on read. *)
let read_sub ~len (m : Insn.mem) : t -> int =
  let addr = compile_addr m in
  let lane_of slots a = Word32.extract slots.(a lsr 2) ~lo:(lane a ~len) ~len in
  match (m.seg, len) with
  | Insn.Ram, 8 -> fun c -> Ram.get8 c.ram (addr c)
  | Insn.Ram, _ -> fun c -> Ram.get16 c.ram (addr c)
  | Insn.Env, _ -> fun c -> lane_of c.env (addr c)
  | Insn.Tlb, _ -> fun c -> lane_of c.tlb (addr c)

let write_sub ~len (m : Insn.mem) : t -> int -> unit =
  let addr = compile_addr m in
  let set_lane slots a v =
    let lo = lane a ~len in
    slots.(a lsr 2) <- Word32.insert slots.(a lsr 2) ~lo ~len v
  in
  match (m.seg, len) with
  | Insn.Ram, 8 -> fun c v -> Ram.set8 c.ram (addr c) v
  | Insn.Ram, _ -> fun c v -> Ram.set16 c.ram (addr c) v
  | Insn.Env, _ -> fun c v -> set_lane c.env (addr c) v
  | Insn.Tlb, _ -> fun c v -> set_lane c.tlb (addr c) v

let reader : Insn.operand -> t -> int = function
  | Insn.Reg r -> fun c -> c.regs.(r)
  | Insn.Imm n ->
    let n = Word32.mask n in
    fun _ -> n
  | Insn.Mem m -> read32 m

let writer : Insn.operand -> t -> int -> unit = function
  | Insn.Reg r -> fun c v -> c.regs.(r) <- Word32.mask v
  | Insn.Mem m -> write32 m
  | Insn.Imm _ -> fun _ _ -> invalid_arg "write to immediate"

let sub_reader ~len : Insn.operand -> t -> int =
  let m = (1 lsl len) - 1 in
  function
  | Insn.Reg r -> fun c -> c.regs.(r) land m
  | Insn.Imm v ->
    let v = v land m in
    fun _ -> v
  | Insn.Mem mem -> read_sub ~len mem

let sub_writer ~len : Insn.operand -> t -> int -> unit = function
  | Insn.Reg r -> fun c v -> c.regs.(r) <- Word32.insert c.regs.(r) ~lo:0 ~len v
  | Insn.Mem m -> write_sub ~len m
  | Insn.Imm _ -> fun _ _ -> invalid_arg "write to immediate"

let cc_test : Insn.cc -> t -> bool = function
  | Insn.E -> fun c -> c.zf
  | Insn.NE -> fun c -> not c.zf
  | Insn.B -> fun c -> c.cf
  | Insn.AE -> fun c -> not c.cf
  | Insn.S -> fun c -> c.sf
  | Insn.NS -> fun c -> not c.sf
  | Insn.O -> fun c -> c.o_f
  | Insn.NO -> fun c -> not c.o_f
  | Insn.A -> fun c -> (not c.cf) && not c.zf
  | Insn.BE -> fun c -> c.cf || c.zf
  | Insn.GE -> fun c -> c.sf = c.o_f
  | Insn.L -> fun c -> c.sf <> c.o_f
  | Insn.G -> fun c -> (not c.zf) && c.sf = c.o_f
  | Insn.LE -> fun c -> c.zf || c.sf <> c.o_f

let set_logic_flags t r =
  t.zf <- r = 0;
  t.sf <- Word32.is_negative r;
  t.cf <- false;
  t.o_f <- false

let set_sz t r =
  t.zf <- r = 0;
  t.sf <- Word32.is_negative r

(* [alu op c a b] sets the flags of [a op b] and returns its result. *)
let alu : Insn.alu_op -> t -> int -> int -> int = function
  | Insn.Add ->
    fun t a b ->
      let r = Word32.add a b in
      t.cf <- Word32.carry_of_add a b ~carry_in:false;
      t.o_f <- Word32.overflow_of_add a b r;
      set_sz t r;
      r
  | Insn.Adc ->
    fun t a b ->
      let cin = t.cf in
      let r = Word32.mask (a + b + if cin then 1 else 0) in
      t.cf <- Word32.carry_of_add a b ~carry_in:cin;
      t.o_f <- Word32.overflow_of_add a b r;
      set_sz t r;
      r
  | Insn.Sub | Insn.Cmp ->
    fun t a b ->
      let r = Word32.sub a b in
      t.cf <- Word32.borrow_of_sub a b ~borrow_in:false;
      t.o_f <- Word32.overflow_of_sub a b r;
      set_sz t r;
      r
  | Insn.Sbb ->
    fun t a b ->
      let bin = t.cf in
      let r = Word32.mask (a - b - if bin then 1 else 0) in
      t.cf <- Word32.borrow_of_sub a b ~borrow_in:bin;
      t.o_f <- Word32.overflow_of_sub a b r;
      set_sz t r;
      r
  | Insn.And | Insn.Test ->
    fun t a b ->
      let r = Word32.logand a b in
      set_logic_flags t r;
      r
  | Insn.Or ->
    fun t a b ->
      let r = Word32.logor a b in
      set_logic_flags t r;
      r
  | Insn.Xor ->
    fun t a b ->
      let r = Word32.logxor a b in
      set_logic_flags t r;
      r

let compile_alu op dst src : op =
  let f = alu op in
  let writes = match op with Insn.Cmp | Insn.Test -> false | _ -> true in
  match (dst, src, writes) with
  | Insn.Reg d, Insn.Reg s, true ->
    fun c ->
      c.regs.(d) <- f c c.regs.(d) c.regs.(s);
      fallthrough
  | Insn.Reg d, Insn.Reg s, false ->
    fun c ->
      ignore (f c c.regs.(d) c.regs.(s));
      fallthrough
  | Insn.Reg d, Insn.Imm n, true ->
    let n = Word32.mask n in
    fun c ->
      c.regs.(d) <- f c c.regs.(d) n;
      fallthrough
  | Insn.Reg d, Insn.Imm n, false ->
    let n = Word32.mask n in
    fun c ->
      ignore (f c c.regs.(d) n);
      fallthrough
  | _, _, true ->
    let rd = reader dst and rs = reader src and wr = writer dst in
    fun c ->
      wr c (f c (rd c) (rs c));
      fallthrough
  | _, _, false ->
    let rd = reader dst and rs = reader src in
    fun c ->
      ignore (f c (rd c) (rs c));
      fallthrough

(* [shift op c v n] (with [0 < n < 32]) sets the flags of shifting [v]
   by [n] and returns the result. *)
let shift : Insn.shift_op -> t -> int -> int -> int = function
  | Insn.Shl ->
    fun t v n ->
      let r = Word32.shift_left v n in
      t.cf <- Word32.bit v (32 - n);
      t.o_f <- false;
      set_sz t r;
      r
  | Insn.Shr ->
    fun t v n ->
      let r = Word32.shift_right_logical v n in
      t.cf <- Word32.bit v (n - 1);
      t.o_f <- false;
      set_sz t r;
      r
  | Insn.Sar ->
    fun t v n ->
      let r = Word32.shift_right_arith v n in
      t.cf <- Word32.bit v (n - 1);
      t.o_f <- false;
      set_sz t r;
      r
  | Insn.Ror ->
    fun t v n ->
      let r = Word32.rotate_right v n in
      (* x86 ror updates only CF (and OF for 1-bit); SF/ZF preserved. *)
      t.cf <- Word32.bit r 31;
      r

(* A zero count reads the operand and changes nothing. *)
let compile_shift op dst amount : op =
  let f = shift op and rd = reader dst and wr = writer dst in
  match (dst, amount) with
  | _, Insn.Sh_imm n when n land 31 = 0 ->
    fun c ->
      ignore (rd c);
      fallthrough
  | Insn.Reg d, Insn.Sh_imm n ->
    let n = n land 31 in
    fun c ->
      c.regs.(d) <- f c c.regs.(d) n;
      fallthrough
  | _, Insn.Sh_imm n ->
    let n = n land 31 in
    fun c ->
      wr c (f c (rd c) n);
      fallthrough
  | _, Insn.Sh_cl ->
    fun c ->
      let v = rd c in
      let n = c.regs.(Insn.rcx) land 31 in
      if n <> 0 then wr c (f c v n);
      fallthrough

let compile_insn (insn : Insn.t) ~target : op =
  match insn with
  | Insn.Label _ -> invalid_arg "Exec.compile_insn: labels are not ops"
  | Insn.Count (Insn.Cnt_guest_insn attr) ->
    fun c ->
      Stats.retire c.stats attr;
      fallthrough
  | Insn.Count Insn.Cnt_sync_op ->
    fun c ->
      c.stats.Stats.sync_ops <- c.stats.Stats.sync_ops + 1;
      fallthrough
  | Insn.Count Insn.Cnt_mmu_access ->
    fun c ->
      c.stats.Stats.mmu_accesses <- c.stats.Stats.mmu_accesses + 1;
      fallthrough
  | Insn.Count Insn.Cnt_irq_poll ->
    fun c ->
      c.stats.Stats.irq_polls <- c.stats.Stats.irq_polls + 1;
      fallthrough
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Reg s } ->
    fun c ->
      c.regs.(d) <- Word32.mask c.regs.(s);
      fallthrough
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Imm n } ->
    let n = Word32.mask n in
    fun c ->
      c.regs.(d) <- n;
      fallthrough
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Mem m } ->
    let rd = read32 m in
    fun c ->
      c.regs.(d) <- Word32.mask (rd c);
      fallthrough
  | Insn.Mov { width = Insn.W32; dst = Insn.Mem m; src = Insn.Reg s } ->
    let wr = write32 m in
    fun c ->
      wr c c.regs.(s);
      fallthrough
  | Insn.Mov { width = Insn.W32; dst; src } ->
    let rd = reader src and wr = writer dst in
    fun c ->
      wr c (rd c);
      fallthrough
  | Insn.Mov { width = (Insn.W8 | Insn.W16) as w; dst; src } ->
    let len = if w = Insn.W8 then 8 else 16 in
    let rd = sub_reader ~len src and wr = sub_writer ~len dst in
    fun c ->
      wr c (rd c);
      fallthrough
  | Insn.Movzx8 { dst; src } ->
    let rd = sub_reader ~len:8 src in
    fun c ->
      c.regs.(dst) <- rd c;
      fallthrough
  | Insn.Movzx16 { dst; src } ->
    let rd = sub_reader ~len:16 src in
    fun c ->
      c.regs.(dst) <- rd c;
      fallthrough
  | Insn.Movsx8 { dst; src } ->
    let rd = sub_reader ~len:8 src in
    fun c ->
      c.regs.(dst) <- Word32.mask (Word32.sign_extend ~width:8 (rd c));
      fallthrough
  | Insn.Movsx16 { dst; src } ->
    let rd = sub_reader ~len:16 src in
    fun c ->
      c.regs.(dst) <- Word32.mask (Word32.sign_extend ~width:16 (rd c));
      fallthrough
  | Insn.Lea { dst; addr } ->
    let a = compile_addr addr in
    fun c ->
      c.regs.(dst) <- a c;
      fallthrough
  | Insn.Alu { op; dst; src } -> compile_alu op dst src
  | Insn.Neg o ->
    let rd = reader o and wr = writer o in
    fun c ->
      let v = rd c in
      let r = Word32.neg v in
      c.cf <- v <> 0;
      c.o_f <- v = 0x8000_0000;
      set_sz c r;
      wr c r;
      fallthrough
  | Insn.Not o ->
    let rd = reader o and wr = writer o in
    fun c ->
      wr c (Word32.lognot (rd c));
      fallthrough
  | Insn.Imul { dst; src } ->
    let rs = reader src in
    fun c ->
      let r = Word32.mul c.regs.(dst) (rs c) in
      c.regs.(dst) <- r;
      (* Model simplification: imul defines SF/ZF, clears CF/OF. *)
      set_logic_flags c r;
      fallthrough
  | Insn.Shift { op; dst; amount } -> compile_shift op dst amount
  | Insn.Setcc { cc; dst } ->
    let test = cc_test cc in
    fun c ->
      c.regs.(dst) <- (if test c then 1 else 0);
      fallthrough
  | Insn.Cmovcc { cc; dst; src } ->
    let test = cc_test cc and rs = reader src in
    fun c ->
      if test c then c.regs.(dst) <- rs c;
      fallthrough
  | Insn.Jcc { cc; target = l } ->
    let test = cc_test cc and dest = target l in
    fun c -> if test c then dest else fallthrough
  | Insn.Jmp l ->
    let dest = target l in
    fun _ -> dest
  | Insn.Savef r ->
    fun c ->
      c.regs.(r) <- get_flags_word c;
      fallthrough
  | Insn.Loadf r ->
    fun c ->
      set_flags_word c c.regs.(r);
      fallthrough
  | Insn.Call_helper { id } ->
    fun c ->
      c.stats.Stats.helper_calls <- c.stats.Stats.helper_calls + 1;
      let ret = c.helper c id in
      poison_caller_saved c;
      c.regs.(Insn.rax) <- Word32.mask ret;
      fallthrough
  | Insn.Exit { slot } ->
    let r = lnot slot in
    fun _ -> r

(* Ops are numbered in code order, skipping labels; a label resolves to
   the op that follows it. Op [n_ops] fails when reached (control fell
   off the end), and so does each op past it, one per label that is
   jumped to but never placed. *)
let build ~code ~tags =
  let targets = Hashtbl.create 8 in
  let n_ops =
    Array.fold_left
      (fun k insn ->
        match insn with
        | Insn.Label l ->
          Hashtbl.replace targets l k;
          k
        | _ -> k + 1)
      0 code
  in
  let size = ref (n_ops + 1) in
  Array.iter
    (function
      | (Insn.Jcc { target = l; _ } | Insn.Jmp l) when not (Hashtbl.mem targets l) ->
        Hashtbl.replace targets l !size;
        incr size
      | _ -> ())
    code;
  let fail msg : op = fun _ -> failwith msg in
  let ops = Array.make !size (fail "Exec: fell off the end of a TB (missing Exit)") in
  let slots = Array.make !size (-1) in
  Hashtbl.iter
    (fun l k -> if k > n_ops then ops.(k) <- fail (Printf.sprintf "Exec: undefined label %d" l))
    targets;
  let target = Hashtbl.find targets in
  let k = ref 0 in
  let place insn =
    ops.(!k) <- compile_insn insn ~target;
    incr k
  in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Label _ -> ()
      | Insn.Count _ -> place insn
      | _ ->
        slots.(!k) <- Stats.tag_index tags.(i);
        place insn)
    code;
  { slots; ops }

let compile ~code ~tags = { code; tags; kernel = unbuilt }
let compiled prog = prog.kernel != unbuilt

(* Top-level rather than a closure in [run], so a run allocates
   nothing but its outcome. *)
let rec go t (st : Stats.t) slots ops ~fuel k spent =
  let s = Array.unsafe_get slots k in
  let spent =
    if s < 0 then spent
    else begin
      st.host_insns <- st.host_insns + 1;
      st.by_tag.(s) <- st.by_tag.(s) + 1;
      let spent = spent + 1 in
      if spent > fuel then raise (Fuel_exhausted { spent });
      spent
    end
  in
  let next = (Array.unsafe_get ops k) t in
  if next = fallthrough then go t st slots ops ~fuel (k + 1) spent
  else if next >= 0 then go t st slots ops ~fuel next spent
  else Exited (lnot next)

let kernel prog =
  let k = prog.kernel in
  if k != unbuilt then k
  else begin
    let k = build ~code:prog.code ~tags:prog.tags in
    prog.kernel <- k;
    k
  end

let run t prog ~fuel =
  let { slots; ops } = kernel prog in
  try go t t.stats slots ops ~fuel 0 0
  with Helper_stop { code; arg } -> Stopped { code; arg }
