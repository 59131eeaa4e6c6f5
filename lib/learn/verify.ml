module A = Repro_arm.Insn
module X = Repro_x86.Insn
module Pinmap = Repro_rules.Pinmap
module Flagconv = Repro_rules.Flagconv
module Term = Repro_symexec.Term
module Sym_ir = Repro_symexec.Sym_ir
module Sym_x86 = Repro_symexec.Sym_x86
module Equiv = Repro_symexec.Equiv

type flag_finding = F_none of { host_clobbers : bool } | F_writes of Flagconv.t

type verified = {
  flags : flag_finding;
  carry_in : [ `Direct | `Inverted ] option;
  strength : Equiv.verdict;
}

(* Reverse pin map: host reg -> guest reg. *)
let guest_of_host =
  let t = Array.make 16 (-1) in
  List.iter
    (fun g -> match Pinmap.pin g with Some h -> t.(h) <- g | None -> ())
    Pinmap.pinned_guests;
  t

let host_flag_writer (i : X.t) =
  match i with
  | X.Alu _ | X.Neg _ | X.Imul _ | X.Loadf _ -> true
  | X.Shift { amount = X.Sh_imm 0; _ } -> false
  | X.Shift _ -> true
  | _ -> false

let seed_host carry_in =
  Sym_x86.initial (fun h ->
      let g = guest_of_host.(h) in
      if g >= 0 then Term.var (Printf.sprintf "r%d" g)
      else Term.var (Printf.sprintf "h%d" h))
  |> fun st ->
  match carry_in with
  | None -> st
  | Some `Direct -> { st with Sym_x86.cf = Term.var "c" }
  | Some `Inverted -> { st with Sym_x86.cf = Term.bool_not (Term.var "c") }

let weakest a b =
  match (a, b) with
  | Equiv.Refuted, _ | _, Equiv.Refuted -> Equiv.Refuted
  | Equiv.Probable, _ | _, Equiv.Probable -> Equiv.Probable
  | Equiv.Proved, Equiv.Proved -> Equiv.Proved

exception Failed of string

(* The guest fragment as QEMU mode executes it: lowered by the
   baseline frontend. PC reads and writes are rejected first, since the
   frontend would fold in a concrete PC or end the block. *)
let lower guest =
  let ctx =
    Repro_tcg.Frontend.create ~alloc_direct:(fun _ -> 0) ~alloc_indirect:(fun () -> 0) ()
  in
  List.iteri
    (fun i insn ->
      if A.uses insn land (1 lsl 15) <> 0 then raise (Sym_ir.Unsupported "pc read");
      if A.defs insn land (1 lsl 15) <> 0 then raise (Sym_ir.Unsupported "pc write");
      ignore (Repro_tcg.Frontend.translate_insn ctx ~pc:(4 * i) insn : bool))
    guest;
  Repro_tcg.Frontend.ops ctx

let check_under ~g1 ~guest ~host carry_in =
  let h1 = Sym_x86.exec (seed_host carry_in) host in
  let defs = List.fold_left (fun acc i -> acc lor A.defs i) 0 guest in
  if defs land lnot Pinmap.pinned_mask <> 0 then raise (Failed "defines unpinned register");
  let strength = ref Equiv.Proved in
  let require what a b =
    match Equiv.check a b with
    | Equiv.Refuted -> raise (Failed (what ^ " mismatch"))
    | v -> strength := weakest !strength v
  in
  (* host register outputs must not depend on unrelated host state *)
  let check_no_flag_vars what t =
    let bad = [ "cf"; "zf"; "sf"; "of" ] in
    if List.exists (fun v -> List.mem v bad) (Term.vars t) then
      raise (Failed (what ^ " depends on initial host flags"))
  in
  List.iter
    (fun g ->
      match Pinmap.pin g with
      | None -> ()
      | Some h ->
        if defs land (1 lsl g) <> 0 then begin
          check_no_flag_vars (Printf.sprintf "r%d" g) h1.Sym_x86.regs.(h);
          require (Printf.sprintf "r%d" g) g1.Sym_ir.regs.(g) h1.Sym_x86.regs.(h)
        end
        else
          require
            (Printf.sprintf "r%d preserved" g)
            (Term.var (Printf.sprintf "r%d" g))
            h1.Sym_x86.regs.(h))
    Pinmap.pinned_guests;
  (* flags *)
  let writes = List.exists A.writes_flags guest in
  let flags =
    if not writes then F_none { host_clobbers = List.exists host_flag_writer host }
    else begin
      require "N" g1.Sym_ir.n h1.Sym_x86.sf;
      require "Z" g1.Sym_ir.z h1.Sym_x86.zf;
      let try_conv conv =
        let saved = !strength in
        try
          (match conv with
          | Flagconv.Sub_like ->
            require "C(sub)" g1.Sym_ir.c (Term.bool_not h1.Sym_x86.cf);
            require "V" g1.Sym_ir.v h1.Sym_x86.o_f
          | Flagconv.Add_like ->
            require "C(add)" g1.Sym_ir.c h1.Sym_x86.cf;
            require "V" g1.Sym_ir.v h1.Sym_x86.o_f
          | Flagconv.Logic_like ->
            require "C(logic)" g1.Sym_ir.c (Term.const 0);
            require "V(logic)" g1.Sym_ir.v (Term.const 0);
            require "OF(logic)" h1.Sym_x86.o_f (Term.const 0)
          | Flagconv.Canonical -> raise (Failed "canonical is not a producer convention"));
          true
        with Failed _ ->
          strength := saved;
          false
      in
      if try_conv Flagconv.Sub_like then F_writes Flagconv.Sub_like
      else if try_conv Flagconv.Add_like then F_writes Flagconv.Add_like
      else if try_conv Flagconv.Logic_like then F_writes Flagconv.Logic_like
      else raise (Failed "no flag convention verifies")
    end
  in
  { flags; carry_in; strength = !strength }

let check ~guest ~host =
  let attempts = [ None; Some `Direct; Some `Inverted ] in
  let rec go g1 last_err = function
    | [] -> Error last_err
    | c :: rest -> (
      match check_under ~g1 ~guest ~host c with
      | v -> Ok { v with carry_in = c }
      | exception Failed msg -> go g1 msg rest
      | exception Sym_x86.Unsupported msg -> Error ("host: " ^ msg))
  in
  match Sym_ir.exec (lower guest) with
  | g1 -> go g1 "no attempts" attempts
  | exception Sym_ir.Unsupported msg -> Error ("guest: " ^ msg)
