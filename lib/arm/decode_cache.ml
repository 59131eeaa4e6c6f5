(* [words.(i)] is the word whose decoding [insns.(i)] holds; -1, which
   no word equals, marks an empty slot. *)
type t = { bits : int; words : int array; insns : (Insn.t, string) result array }

let create ~bits =
  let size = 1 lsl bits in
  { bits; words = Array.make size (-1); insns = Array.make size (Error "empty") }

(* Fibonacci hashing: the high bits of the product mix every field of
   the word (condition, opcode, registers, immediate) into the index. *)
let slot t w = ((w * 0x1E37_79B9_7F4A_7C15) lsr (62 - t.bits)) land ((1 lsl t.bits) - 1)

let decode t w =
  let i = slot t w in
  if t.words.(i) = w then t.insns.(i)
  else begin
    let d = Encode.decode w in
    t.words.(i) <- w;
    t.insns.(i) <- d;
    d
  end
