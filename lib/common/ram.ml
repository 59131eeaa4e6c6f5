type t = {
  size : int;
  pages : Bytes.t array;
  dirty : Bytes.t;
  mutable sync : string array;
}

(* Never written: [own] gives a page its own bytes before its first
   write, so this one buffer stands for every untouched page of every
   machine in every domain. *)
let zero_page = Bytes.make Pages.size '\000'

let create size =
  if size <= 0 then invalid_arg "Ram.create";
  let n = Pages.count size in
  {
    size;
    pages = Array.make n zero_page;
    dirty = Bytes.make n '\000';
    sync = Pages.zero size;
  }

let size t = t.size
let owned t = Array.fold_left (fun n p -> if p == zero_page then n else n + 1) 0 t.pages
let is_dirty t i = Bytes.get t.dirty i <> '\000'
let sync t = t.sync

(* Every page is [Pages.size] bytes, the last one too (its tail past
   [size] is never addressed), so an in-page offset needs no check:
   [t.pages.(i)] is the one range check an access makes. *)
let mask = Pages.size - 1

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap16 : int -> int = "%bswap16"

(* The page of byte [a], given its own bytes first if it has none, and
   marked dirty: a write calls this before it stores. *)
let own t a =
  let i = a lsr Pages.bits in
  let p = t.pages.(i) in
  Bytes.unsafe_set t.dirty i '\001';
  if p != zero_page then p
  else begin
    let q = Bytes.make Pages.size '\000' in
    t.pages.(i) <- q;
    q
  end

(* A word or halfword across a page boundary: [n] bytes, one at a
   time, little-endian. *)
let rec get_bytes t a n =
  if n = 0 then 0
  else Char.code (Bytes.unsafe_get t.pages.(a lsr Pages.bits) (a land mask))
       lor (get_bytes t (a + 1) (n - 1) lsl 8)

let rec set_bytes t a n v =
  if n > 0 then begin
    Bytes.unsafe_set (own t a) (a land mask) (Char.unsafe_chr (v land 0xFF));
    set_bytes t (a + 1) (n - 1) (v lsr 8)
  end

(* The in-page paths are inlined into their callers (the threaded-code
   kernel, the bus, the softMMU helpers), as the [Bytes] accesses they
   replace were. *)
let[@inline] get8 t a = Char.code (Bytes.unsafe_get t.pages.(a lsr Pages.bits) (a land mask))

let[@inline] get16 t a =
  let o = a land mask in
  if o < Pages.size - 1 then
    let v = get16u t.pages.(a lsr Pages.bits) o in
    if Sys.big_endian then swap16 v else v
  else get_bytes t a 2

let[@inline] get32 t a =
  let o = a land mask in
  if o < Pages.size - 3 then
    let v = get32u t.pages.(a lsr Pages.bits) o in
    Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFF_FFFF
  else get_bytes t a 4

let set8 t a v = Bytes.unsafe_set (own t a) (a land mask) (Char.unsafe_chr (v land 0xFF))

let set16 t a v =
  let o = a land mask in
  if o < Pages.size - 1 then
    set16u (own t a) o (if Sys.big_endian then swap16 (v land 0xFFFF) else v land 0xFFFF)
  else set_bytes t a 2 v

let set32 t a v =
  let o = a land mask in
  if o < Pages.size - 3 then
    let v = Int32.of_int v in
    set32u (own t a) o (if Sys.big_endian then swap32 v else v)
  else set_bytes t a 4 v

let to_string t =
  let b = Bytes.create t.size in
  Array.iteri
    (fun i p -> Bytes.blit p 0 b (i lsl Pages.bits) (Pages.page_len t.size i))
    t.pages;
  Bytes.unsafe_to_string b

let capture t =
  if Bytes.for_all (fun c -> c = '\000') t.dirty then t.sync
  else begin
    let pages =
      Array.mapi
        (fun i page ->
          if is_dirty t i then Bytes.sub_string t.pages.(i) 0 (String.length page)
          else page)
        t.sync
    in
    t.sync <- pages;
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    pages
  end

let restore t pages =
  let have = Pages.length pages in
  if have <> t.size then
    invalid_arg (Printf.sprintf "%d bytes, machine has %d" have t.size);
  Array.iteri
    (fun i page ->
      if is_dirty t i || page != t.sync.(i) then
        let p = t.pages.(i) in
        (* an owned page stays owned, even when [page] is all zeros:
           giving it back would only make the next write allocate *)
        if p != zero_page then Bytes.blit_string page 0 p 0 (String.length page)
        else if not (String.for_all (fun c -> c = '\000') page) then
          Bytes.blit_string page 0 (own t (i lsl Pages.bits)) 0 (String.length page))
    pages;
  t.sync <- pages;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'
