(* The cost-attribution phases. Every retired host instruction the
   engine charges lands in exactly one of these, so the per-phase
   totals partition [Stats.host_insns] (the exactness invariant the
   perfscope tests assert). *)

type t = Translate | Execute | Coordinate | Softmmu | Helper | Deliver | Region

let all = [ Translate; Execute; Coordinate; Softmmu; Helper; Deliver; Region ]
let n = 7

let index = function
  | Translate -> 0
  | Execute -> 1
  | Coordinate -> 2
  | Softmmu -> 3
  | Helper -> 4
  | Deliver -> 5
  | Region -> 6

let name = function
  | Translate -> "translate"
  | Execute -> "execute"
  | Coordinate -> "coordinate"
  | Softmmu -> "softmmu"
  | Helper -> "helper"
  | Deliver -> "deliver"
  | Region -> "region"
