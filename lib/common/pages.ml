let bits = 12
let size = 1 lsl bits
let count n = (n + size - 1) lsr bits
let fan_bits = 5
let fan = 1 lsl fan_bits

(* immutable, so one string serves every machine in every domain *)
let zero_page = String.make size '\000'

let page_len n i = min size (n - (i lsl bits))

(* Leaves of [fan] pages; only the last one may be shorter. *)
type t = string array array

let of_pages a =
  let n = Array.length a in
  Array.init ((n + fan - 1) lsr fan_bits) (fun l ->
      Array.sub a (l lsl fan_bits) (min fan (n - (l lsl fan_bits))))

let zero n =
  of_pages
    (Array.init (count n) (fun i ->
         let len = page_len n i in
         if len = size then zero_page else String.make len '\000'))

let split ?(pos = 0) ?len s =
  let n = match len with Some n -> n | None -> String.length s - pos in
  of_pages (Array.init (count n) (fun i -> String.sub s (pos + (i lsl bits)) (page_len n i)))

let get v i = v.(i lsr fan_bits).(i land (fan - 1))

let iteri f v =
  Array.iteri (fun l leaf -> Array.iteri (fun j p -> f ((l lsl fan_bits) + j) p) leaf) v

let fold f acc v = Array.fold_left (Array.fold_left f) acc v
let length v = fold (fun n p -> n + String.length p) 0 v

let to_string v =
  let b = Buffer.create (length v) in
  fold (fun () p -> Buffer.add_string b p) () v;
  Buffer.contents b

let leaf_marked marked l leaf =
  let base = l lsl fan_bits in
  let rec from j = j < Array.length leaf && (marked (base + j) || from (j + 1)) in
  from 0

let update v ~marked page =
  let fresh l leaf =
    let base = l lsl fan_bits in
    Array.mapi (fun j p -> if marked (base + j) then page (base + j) else p) leaf
  in
  let rec first l =
    if l = Array.length v then v
    else if leaf_marked marked l v.(l) then begin
      let top = Array.copy v in
      for l = l to Array.length v - 1 do
        if leaf_marked marked l v.(l) then top.(l) <- fresh l v.(l)
      done;
      top
    end
    else first (l + 1)
  in
  first 0

let iter_changed ~old ~marked v f =
  Array.iteri
    (fun l leaf ->
      let was = old.(l) in
      if leaf != was || leaf_marked marked l leaf then
        Array.iteri
          (fun j p ->
            let i = (l lsl fan_bits) + j in
            if marked i || p != was.(j) then f i p)
          leaf)
    v
