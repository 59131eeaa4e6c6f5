module Ir = Repro_tcg.Ir
module Envspec = Repro_tcg.Envspec
module M = Map.Make (Int)

type state = { regs : Term.t array; n : Term.t; z : Term.t; c : Term.t; v : Term.t }

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Env slots and temps, as persistent maps so that a guard's skipped
   path is a saved copy. *)
type vals = { env : Term.t M.t; temps : Term.t M.t }

let initial =
  let named =
    List.init 15 (fun r -> (Envspec.reg r, Printf.sprintf "r%d" r))
    @ [ (Envspec.cc_n, "n"); (Envspec.cc_z, "z"); (Envspec.cc_c, "c"); (Envspec.cc_v, "v") ]
  in
  let add env (slot, name) = M.add slot (Term.var name) env in
  { env = List.fold_left add M.empty named; temps = M.empty }

(* Terms known to be 0/1: comparisons, the initial flags, and the
   and/or/merge of those that the frontend builds flags from. *)
let rec boolean (t : Term.t) =
  match t with
  | Bin ((Ltu | Lts | Eq), _, _) | Const (0 | 1) | Var ("n" | "z" | "c" | "v") -> true
  | Bin ((And | Or), a, b) | Ite (_, a, b) -> boolean a && boolean b
  | _ -> false

let binop (op : Ir.binop) a b =
  match (op, b) with
  (* The frontend negates a 0/1 value (the borrow-in, a guard's ¬z)
     as [x ^ 1]. *)
  | Xor, Term.Const 1 when boolean a -> Term.bool_not a
  | _ ->
    let op : Term.op =
      match op with
      | Add -> Add
      | Sub -> Sub
      | And -> And
      | Or -> Or
      | Xor -> Xor
      | Mul -> Mul
      | Shl -> Shl
      | Shr -> Shr
      | Sar -> Sar
      | Ror -> Ror
    in
    Term.bin op a b

let compare (cmp : Ir.cmp) a b =
  match cmp with
  | Eq -> Term.bin Eq a b
  | Ne -> Term.bool_not (Term.bin Eq a b)
  | Ltu -> Term.bin Ltu a b
  | Geu -> Term.bool_not (Term.bin Ltu a b)
  | Lts -> Term.bin Lts a b
  | Ges -> Term.bool_not (Term.bin Lts a b)

let read vals t =
  match M.find_opt t vals.temps with
  | Some x -> x
  | None -> unsupported "temp %d read before it is written" t

let set vals t x = { vals with temps = M.add t x vals.temps }

let load vals slot =
  match M.find_opt slot vals.env with
  | Some x -> x
  | None -> unsupported "env slot %d read" slot

let store vals slot x =
  if slot = Envspec.ccr_tag then vals
  else if M.mem slot vals.env then { vals with env = M.add slot x vals.env }
  else unsupported "env slot %d written" slot

(* Join at a label: [taken] holds when the branch saved as [at] was
   taken. A temp defined on one path only is dropped. *)
let merge taken at fall =
  let join _ a b =
    match (a, b) with
    | Some a, Some b -> Some (if a == b then a else Term.ite taken a b)
    | _ -> None
  in
  { env = M.merge join at.env fall.env; temps = M.merge join at.temps fall.temps }

let exec ops =
  (* [pending]: forward branches not yet joined, latest first *)
  let rec go vals pending = function
    | [] ->
      if pending <> [] then unsupported "branch out of the fragment";
      vals
    | (op : Ir.t) :: rest -> (
      let next vals = go vals pending rest in
      match op with
      | Insn_start _ -> next vals
      | Movi (d, k) -> next (set vals d (Term.const k))
      | Mov (d, s) -> next (set vals d (read vals s))
      | Ld_env (d, slot) -> next (set vals d (load vals slot))
      | St_env (slot, s) -> next (store vals slot (read vals s))
      | Sti_env (slot, k) -> next (store vals slot (Term.const k))
      | Binop (op, d, a, b) -> next (set vals d (binop op (read vals a) (read vals b)))
      | Binopi (op, d, a, k) -> next (set vals d (binop op (read vals a) (Term.const k)))
      | Not (d, a) -> next (set vals d (Term.lnot (read vals a)))
      | Setcond (cmp, d, a, b) -> next (set vals d (compare cmp (read vals a) (read vals b)))
      | Setcondi (cmp, d, a, k) ->
        next (set vals d (compare cmp (read vals a) (Term.const k)))
      | Brcondi (cmp, t, k, label) ->
        go vals ((label, compare cmp (read vals t) (Term.const k), vals) :: pending) rest
      | Set_label label ->
        let here, pending = List.partition (fun (l, _, _) -> l = label) pending in
        (* folding latest first leaves the earliest taken branch outermost *)
        let vals = List.fold_left (fun fall (_, taken, at) -> merge taken at fall) vals here in
        go vals pending rest
      | Br _ | Qemu_ld _ | Qemu_st _ | Call _ | Goto_tb _ | Exit_indirect _ ->
        raise (Unsupported (Format.asprintf "%a" Ir.pp op)))
  in
  let { env; _ } = go initial [] ops in
  let slot s = M.find s env in
  {
    regs = Array.init 15 (fun r -> slot (Envspec.reg r));
    n = slot Envspec.cc_n;
    z = slot Envspec.cc_z;
    c = slot Envspec.cc_c;
    v = slot Envspec.cc_v;
  }
