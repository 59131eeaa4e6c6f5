type t = int

let mask w = w land 0xFFFF_FFFF
let max_value = 0xFFFF_FFFF
let add a b = mask (a + b)
let sub a b = mask (a - b)
let mul a b = mask (a * b)
let neg a = mask (-a)
let logand = ( land )
let logor = ( lor )
let logxor = ( lxor )
let lognot a = mask (lnot a)
let shift_left w n = if n >= 32 || n < 0 then 0 else mask (w lsl n)
let shift_right_logical w n = if n >= 32 || n < 0 then 0 else w lsr n

let signed w = if w land 0x8000_0000 <> 0 then w - 0x1_0000_0000 else w
let of_signed i = mask i

let shift_right_arith w n =
  if n <= 0 then w
  else if n >= 32 then if w land 0x8000_0000 <> 0 then max_value else 0
  else mask (signed w asr n)

let rotate_right w n =
  let n = n land 31 in
  if n = 0 then w else mask ((w lsr n) lor (w lsl (32 - n)))

let bit w i = (w lsr i) land 1 = 1

let set_bit w i b =
  if b then w lor (1 lsl i) else w land lnot (1 lsl i) land max_value

let extract w ~lo ~len = (w lsr lo) land ((1 lsl len) - 1)

let insert w ~lo ~len v =
  let m = ((1 lsl len) - 1) lsl lo in
  (w land lnot m land max_value) lor ((v lsl lo) land m)

let is_negative w = w land 0x8000_0000 <> 0
let compare_signed a b = compare (signed a) (signed b)
let compare_unsigned = compare

let carry_of_add a b ~carry_in =
  a + b + (if carry_in then 1 else 0) > max_value

let overflow_of_add a b r =
  is_negative a = is_negative b && is_negative r <> is_negative a

let borrow_of_sub a b ~borrow_in = a - b - (if borrow_in then 1 else 0) < 0

let overflow_of_sub a b r =
  is_negative a <> is_negative b && is_negative r <> is_negative a

let sign_extend ~width w =
  let w = w land ((1 lsl width) - 1) in
  if width < 32 && bit w (width - 1) then w lor (max_value lxor ((1 lsl width) - 1))
  else w

let pp ppf w = Format.fprintf ppf "0x%08x" w
let to_hex w = Printf.sprintf "0x%08x" w
