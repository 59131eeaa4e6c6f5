module X = Repro_x86.Insn
module Cond = Repro_arm.Cond

type t = Add_like | Sub_like | Logic_like | Canonical

let all = [ Add_like; Sub_like; Logic_like; Canonical ]

type cond_eval = Cc of X.cc | Always | Never | Needs_materialize

(* Shared N/Z/V-only mappings (identical under every convention since
   SF/ZF/OF always mirror N/Z/V). *)
let common (c : Cond.t) =
  match c with
  | Cond.AL -> Some Always
  | Cond.EQ -> Some (Cc X.E)
  | Cond.NE -> Some (Cc X.NE)
  | Cond.MI -> Some (Cc X.S)
  | Cond.PL -> Some (Cc X.NS)
  | Cond.VS -> Some (Cc X.O)
  | Cond.VC -> Some (Cc X.NO)
  | Cond.GE -> Some (Cc X.GE)
  | Cond.LT -> Some (Cc X.L)
  | Cond.GT -> Some (Cc X.G)
  | Cond.LE -> Some (Cc X.LE)
  | Cond.CS | Cond.CC | Cond.HI | Cond.LS -> None

let eval conv (c : Cond.t) =
  match common c with
  | Some e -> e
  | None -> (
    match conv with
    | Sub_like | Canonical -> (
      (* CF = ¬C: x86's unsigned conditions line up directly. *)
      match c with
      | Cond.CS -> Cc X.AE
      | Cond.CC -> Cc X.B
      | Cond.HI -> Cc X.A
      | Cond.LS -> Cc X.BE
      | _ -> assert false)
    | Add_like -> (
      (* CF = C: CS/CC map, but HI/LS mix CF and ZF the "wrong" way. *)
      match c with
      | Cond.CS -> Cc X.B
      | Cond.CC -> Cc X.AE
      | Cond.HI | Cond.LS -> Needs_materialize
      | _ -> assert false)
    | Logic_like -> (
      (* C = 0 (and CF = 0): carry conditions are constants. *)
      match c with
      | Cond.CS -> Never
      | Cond.CC -> Always
      | Cond.HI -> Never
      | Cond.LS -> Always
      | _ -> assert false))

let carry_inverted = function
  | Sub_like | Canonical -> true
  | Add_like | Logic_like -> false

let name = function
  | Add_like -> "add"
  | Sub_like -> "sub"
  | Logic_like -> "logic"
  | Canonical -> "canonical"

let pp ppf t = Format.pp_print_string ppf (name t)
