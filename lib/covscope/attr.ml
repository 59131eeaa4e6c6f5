module AI = Repro_arm.Insn

type tier =
  | Region    (** rule-translated code running inside a fused hot region *)
  | Rule      (** native code from a learned/builtin rule TB *)
  | Baseline  (** baseline TCG frontend/backend translation *)
  | Interp    (** the decode-dispatch interpreter rung *)
  | Helper    (** retired natively but served by a helper call *)

let n_tiers = 5

let tier_index = function
  | Region -> 0
  | Rule -> 1
  | Baseline -> 2
  | Interp -> 3
  | Helper -> 4

let tier_of_index = function
  | 0 -> Region
  | 1 -> Rule
  | 2 -> Baseline
  | 3 -> Interp
  | 4 -> Helper
  | n -> invalid_arg (Printf.sprintf "Attr.tier_of_index: %d" n)

let all_tiers = [ Region; Rule; Baseline; Interp; Helper ]

let tier_name = function
  | Region -> "region"
  | Rule -> "rule"
  | Baseline -> "baseline"
  | Interp -> "interp"
  | Helper -> "helper"

let covered = function
  | Region | Rule -> true
  | Baseline | Interp | Helper -> false

(* Packed attribution word, the [Cnt_guest_insn] payload:

     bits 0..2   tier          (n_tiers <= 8)
     bits 3..9   opcode class  (AI.n_classes <= 128)
     bits 10..13 idiom         (AI.n_idioms = 16)
     bits 14..   rule id + 1   (0 = not rule-attributed)

   [Stats.retire] treats the word as opaque; only the reports decode
   it. The static widths are asserted once at load time. *)

let () =
  assert (n_tiers <= 8);
  assert (AI.n_classes <= 128);
  assert (AI.n_idioms <= 16)

let tier_bits = 3
let cls_shift = tier_bits
let idiom_shift = cls_shift + 7
let rule_shift = idiom_shift + 4

let pack_raw ~tier ~cls ~idiom ~rule =
  let rule_field = match rule with None -> 0 | Some id -> id + 1 in
  tier_index tier
  lor (cls lsl cls_shift)
  lor (idiom lsl idiom_shift)
  lor (rule_field lsl rule_shift)

let pack ~tier ?rule insn =
  pack_raw ~tier
    ~cls:(AI.cls_index (AI.classify insn))
    ~idiom:(AI.idiom_of insn) ~rule

(* Attribution of a guest instruction we could not decode (the
   interpreter rung's undefined-instruction path): charged to the
   [Udf] class with a plain idiom. *)
let pack_undecodable ~tier =
  pack_raw ~tier ~cls:(AI.cls_index AI.C_udf) ~idiom:0 ~rule:None

let tier attr = tier_of_index (attr land 7)
let cls attr = (attr lsr cls_shift) land 127
let idiom attr = (attr lsr idiom_shift) land 15

let rule attr =
  let f = attr lsr rule_shift in
  if f = 0 then None else Some (f - 1)

let retier attr tier = attr land lnot 7 lor tier_index tier
