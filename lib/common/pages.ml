let bits = 12
let size = 1 lsl bits
let count n = (n + size - 1) lsr bits
let bitmap n = Bytes.make (count n) '\000'
let mark dirty addr = Bytes.set dirty (addr lsr bits) '\001'
let is_dirty dirty i = Bytes.get dirty i <> '\000'
let clear dirty = Bytes.fill dirty 0 (Bytes.length dirty) '\000'

(* immutable, so one string serves every machine in every domain *)
let zero_page = String.make size '\000'

let page_len n i = min size (n - (i lsl bits))

let zero n =
  Array.init (count n) (fun i ->
      let len = page_len n i in
      if len = size then zero_page else String.make len '\000')

let length pages = Array.fold_left (fun n p -> n + String.length p) 0 pages

let split s =
  let n = String.length s in
  Array.init (count n) (fun i -> String.sub s (i lsl bits) (page_len n i))
