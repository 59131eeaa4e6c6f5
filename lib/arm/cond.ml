type t = EQ | NE | CS | CC | MI | PL | VS | VC | HI | LS | GE | LT | GT | LE | AL

type flags = { n : bool; z : bool; c : bool; v : bool }

let holds_word t w =
  let n = w land 0x8000_0000 <> 0
  and z = w land 0x4000_0000 <> 0
  and c = w land 0x2000_0000 <> 0
  and v = w land 0x1000_0000 <> 0 in
  match t with
  | EQ -> z
  | NE -> not z
  | CS -> c
  | CC -> not c
  | MI -> n
  | PL -> not n
  | VS -> v
  | VC -> not v
  | HI -> c && not z
  | LS -> (not c) || z
  | GE -> n = v
  | LT -> n <> v
  | GT -> (not z) && n = v
  | LE -> z || n <> v
  | AL -> true

let negate = function
  | EQ -> NE
  | NE -> EQ
  | CS -> CC
  | CC -> CS
  | MI -> PL
  | PL -> MI
  | VS -> VC
  | VC -> VS
  | HI -> LS
  | LS -> HI
  | GE -> LT
  | LT -> GE
  | GT -> LE
  | LE -> GT
  | AL -> assert false

let to_int = function
  | EQ -> 0
  | NE -> 1
  | CS -> 2
  | CC -> 3
  | MI -> 4
  | PL -> 5
  | VS -> 6
  | VC -> 7
  | HI -> 8
  | LS -> 9
  | GE -> 10
  | LT -> 11
  | GT -> 12
  | LE -> 13
  | AL -> 14

let of_int = function
  | 0 -> Some EQ
  | 1 -> Some NE
  | 2 -> Some CS
  | 3 -> Some CC
  | 4 -> Some MI
  | 5 -> Some PL
  | 6 -> Some VS
  | 7 -> Some VC
  | 8 -> Some HI
  | 9 -> Some LS
  | 10 -> Some GE
  | 11 -> Some LT
  | 12 -> Some GT
  | 13 -> Some LE
  | 14 -> Some AL
  | _ -> None

let to_string = function
  | EQ -> "eq"
  | NE -> "ne"
  | CS -> "cs"
  | CC -> "cc"
  | MI -> "mi"
  | PL -> "pl"
  | VS -> "vs"
  | VC -> "vc"
  | HI -> "hi"
  | LS -> "ls"
  | GE -> "ge"
  | LT -> "lt"
  | GT -> "gt"
  | LE -> "le"
  | AL -> ""

let all = [ EQ; NE; CS; CC; MI; PL; VS; VC; HI; LS; GE; LT; GT; LE; AL ]

open Repro_common

let flags_to_word { n; z; c; v } =
  let b cond bit = if cond then 1 lsl bit else 0 in
  b n 31 lor b z 30 lor b c 29 lor b v 28

let flags_of_word w =
  { n = Word32.bit w 31; z = Word32.bit w 30; c = Word32.bit w 29; v = Word32.bit w 28 }

let pp_flags ppf { n; z; c; v } =
  let ch b l = if b then l else '.' in
  Format.fprintf ppf "%c%c%c%c" (ch n 'N') (ch z 'Z') (ch c 'C') (ch v 'V')

let equal_flags a b = a = b
let holds t f = holds_word t (flags_to_word f)
