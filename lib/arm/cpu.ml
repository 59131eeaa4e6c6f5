open Repro_common

type mode = User | System | Supervisor | Irq | Abort | Undef

let mode_bits = function
  | User -> 0b10000
  | Irq -> 0b10010
  | Supervisor -> 0b10011
  | Abort -> 0b10111
  | Undef -> 0b11011
  | System -> 0b11111

let mode_of_bits = function
  | 0b10000 -> Some User
  | 0b10010 -> Some Irq
  | 0b10011 -> Some Supervisor
  | 0b10111 -> Some Abort
  | 0b11011 -> Some Undef
  | 0b11111 -> Some System
  | _ -> None

let mode_is_privileged = function
  | User -> false
  | System | Supervisor | Irq | Abort | Undef -> true

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | User -> "usr"
    | System -> "sys"
    | Supervisor -> "svc"
    | Irq -> "irq"
    | Abort -> "abt"
    | Undef -> "und")

(* sp/lr are banked per exception mode (User and System share a bank);
   SPSR exists only for exception modes. *)
type bank = { mutable sp : Word32.t; mutable lr : Word32.t; mutable spsr : Word32.t }

type t = {
  regs : Word32.t array;  (* current view *)
  mutable cpsr : Word32.t;
  usr_bank : bank;
  svc_bank : bank;
  irq_bank : bank;
  abt_bank : bank;
  und_bank : bank;
  mutable ttbr : Word32.t;
  mutable sctlr : Word32.t;
  mutable dfar : Word32.t;
  mutable dfsr : Word32.t;
  mutable fpscr : Word32.t;
  mutable tlb_flushes : int;
}

let fresh_bank () = { sp = 0; lr = 0; spsr = 0 }

let bank_of t = function
  | User | System -> t.usr_bank
  | Supervisor -> t.svc_bank
  | Irq -> t.irq_bank
  | Abort -> t.abt_bank
  | Undef -> t.und_bank

let mode t =
  match mode_of_bits (Word32.extract t.cpsr ~lo:0 ~len:5) with
  | Some m -> m
  | None -> assert false (* the mode field is only ever written via set_mode *)

let create () =
  {
    regs = Array.make 16 0;
    cpsr = mode_bits Supervisor lor 0x80 (* I bit set: IRQs masked at reset *);
    usr_bank = fresh_bank ();
    svc_bank = fresh_bank ();
    irq_bank = fresh_bank ();
    abt_bank = fresh_bank ();
    und_bank = fresh_bank ();
    ttbr = 0;
    sctlr = 0;
    dfar = 0;
    dfsr = 0;
    fpscr = 0;
    tlb_flushes = 0;
  }

let get_reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- Word32.mask v
let get_pc t = t.regs.(15)
let set_pc t v = t.regs.(15) <- Word32.mask v
let get_flags t = Cond.flags_of_word t.cpsr

let set_nzcv t w = t.cpsr <- (t.cpsr land 0x0FFF_FFFF) lor (w land 0xF000_0000)
let set_flags t f = set_nzcv t (Cond.flags_to_word f)
let get_cpsr t = t.cpsr

let switch_bank t ~from_mode ~to_mode =
  let old_b = bank_of t from_mode and new_b = bank_of t to_mode in
  if old_b != new_b then begin
    old_b.sp <- t.regs.(13);
    old_b.lr <- t.regs.(14);
    t.regs.(13) <- new_b.sp;
    t.regs.(14) <- new_b.lr
  end

let set_mode t m =
  let current = mode t in
  if current <> m then begin
    switch_bank t ~from_mode:current ~to_mode:m;
    t.cpsr <- Word32.insert t.cpsr ~lo:0 ~len:5 (mode_bits m)
  end

let set_cpsr t w =
  let w = Word32.mask w in
  (match mode_of_bits (Word32.extract w ~lo:0 ~len:5) with
  | Some m -> set_mode t m
  | None -> ());
  (* Preserve the (possibly corrected) mode bits installed by set_mode. *)
  let mode_field = Word32.extract t.cpsr ~lo:0 ~len:5 in
  t.cpsr <- Word32.insert w ~lo:0 ~len:5 mode_field

let get_spsr t =
  match mode t with User | System -> 0 | m -> (bank_of t m).spsr

let set_spsr t v =
  match mode t with
  | User | System -> ()
  | m -> (bank_of t m).spsr <- Word32.mask v

let irq_masked t = Word32.bit t.cpsr 7
let set_irq_masked t b = t.cpsr <- Word32.set_bit t.cpsr 7 b
let get_ttbr t = t.ttbr
let set_ttbr t v = t.ttbr <- Word32.mask v
let mmu_enabled t = Word32.bit t.sctlr 0
let set_mmu_enabled t b = t.sctlr <- Word32.set_bit t.sctlr 0 b
let get_dfar t = t.dfar
let set_dfar t v = t.dfar <- Word32.mask v
let get_dfsr t = t.dfsr
let set_dfsr t v = t.dfsr <- Word32.mask v
let get_fpscr t = t.fpscr
let set_fpscr t v = t.fpscr <- Word32.mask v
let bump_tlb_flush t = t.tlb_flushes <- t.tlb_flushes + 1

type exn_kind = Reset | Undefined_insn | Supervisor_call | Prefetch_abort | Data_abort | Irq

let vector_of = function
  | Reset -> 0x00
  | Undefined_insn -> 0x04
  | Supervisor_call -> 0x08
  | Prefetch_abort -> 0x0C
  | Data_abort -> 0x10
  | Irq -> 0x18

let exception_mode = function
  | Reset -> Supervisor
  | Undefined_insn -> Undef
  | Supervisor_call -> Supervisor
  | Prefetch_abort -> Abort
  | Data_abort -> Abort
  | Irq -> Irq

(* Preferred return address, as an offset from the faulting (or, for
   IRQ, next-to-execute) instruction. Handlers return with
   [movs pc, lr] (svc/undef), [subs pc, lr, #4] (irq/pabt) or
   [subs pc, lr, #8] (dabt), per the ARM ARM. *)
let lr_offset = function
  | Reset -> 0
  | Undefined_insn -> 4
  | Supervisor_call -> 4
  | Prefetch_abort -> 4
  | Data_abort -> 8
  | Irq -> 4

let take_exception t kind ~pc_of_faulting_insn =
  let old_cpsr = t.cpsr in
  let new_mode = exception_mode kind in
  set_mode t new_mode;
  (bank_of t new_mode).spsr <- old_cpsr;
  t.regs.(14) <- Word32.add pc_of_faulting_insn (lr_offset kind);
  set_irq_masked t true;
  t.regs.(15) <- vector_of kind

(* Full architectural dump for machine snapshots — unlike [snapshot]
   below (a current-mode view used by shadow verification), this
   covers every bank raw, so restore is bit-exact regardless of the
   mode at capture time. Layout:
   regs[0..15], cpsr, 5 banks x (sp, lr, spsr), ttbr, sctlr, dfar,
   dfsr, fpscr, tlb_flushes = 38 words. *)
let save_words_len = 38

let save_words t =
  let banks = [ t.usr_bank; t.svc_bank; t.irq_bank; t.abt_bank; t.und_bank ] in
  Array.concat
    ([ Array.copy t.regs; [| t.cpsr |] ]
    @ List.map (fun b -> [| b.sp; b.lr; b.spsr |]) banks
    @ [ [| t.ttbr; t.sctlr; t.dfar; t.dfsr; t.fpscr; t.tlb_flushes |] ])

let load_words t w =
  if Array.length w <> save_words_len then invalid_arg "Cpu.load_words: bad length";
  Array.blit w 0 t.regs 0 16;
  t.cpsr <- w.(16);
  List.iteri
    (fun i b ->
      b.sp <- w.(17 + (3 * i));
      b.lr <- w.(18 + (3 * i));
      b.spsr <- w.(19 + (3 * i)))
    [ t.usr_bank; t.svc_bank; t.irq_bank; t.abt_bank; t.und_bank ];
  t.ttbr <- w.(32);
  t.sctlr <- w.(33);
  t.dfar <- w.(34);
  t.dfsr <- w.(35);
  t.fpscr <- w.(36);
  t.tlb_flushes <- w.(37)

type snapshot = {
  regs : Word32.t array;
  cpsr : Word32.t;
  spsr : Word32.t;
  ttbr : Word32.t;
  sctlr_m : bool;
  fpscr : Word32.t;
}

let to_snapshot (t : t) =
  {
    regs = Array.copy t.regs;
    cpsr = t.cpsr;
    spsr = get_spsr t;
    ttbr = t.ttbr;
    sctlr_m = mmu_enabled t;
    fpscr = t.fpscr;
  }

let of_snapshot s =
  let t = create () in
  (match mode_of_bits (Word32.extract s.cpsr ~lo:0 ~len:5) with
  | Some m -> set_mode t m
  | None -> ());
  t.cpsr <- Word32.insert s.cpsr ~lo:0 ~len:5 (Word32.extract t.cpsr ~lo:0 ~len:5);
  Array.blit s.regs 0 t.regs 0 16;
  set_spsr t s.spsr;
  t.ttbr <- s.ttbr;
  set_mmu_enabled t s.sctlr_m;
  t.fpscr <- s.fpscr;
  t

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i v ->
      Format.fprintf ppf "r%-2d = %a%s" i Word32.pp v (if i mod 4 = 3 then "\n" else "  "))
    s.regs;
  Format.fprintf ppf "cpsr = %a (%a)  spsr = %a  fpscr = %a@]" Word32.pp s.cpsr
    Cond.pp_flags
    (Cond.flags_of_word s.cpsr)
    Word32.pp s.spsr Word32.pp s.fpscr
