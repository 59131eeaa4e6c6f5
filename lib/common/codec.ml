(* The byte codec every persisted artifact is written with. See the
   interface. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let fnv_basis = 0x811c9dc5

(* Folds bytes [pos] to the end of [s], or [len] of them. *)
let fnv_fold ?(pos = 0) ?len h s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xFFFF_FFFF
  done;
  !h

let fnv1a32 s = fnv_fold fnv_basis s

(* Numbers are varints: 7 bits a byte, low bits first, the high bit set
   on every byte but the last, so at most 9 bytes for 63 bits. A signed
   number is zigzagged first: 0, -1, 1, -2 ... become 0, 1, 2, 3 ... *)
module Enc = struct
  type t = Buffer.t

  (* most sections are a few words; a capture encodes several *)
  let create () = Buffer.create 64

  let rec varint b u =
    if u lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr u)
    else begin
      Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
      varint b (u lsr 7)
    end

  let nat b n = if n < 0 then invalid_arg "Codec.Enc.nat: negative" else varint b n
  let int b v = varint b ((v lsl 1) lxor (v asr 62))
  let bool b v = varint b (Bool.to_int v)

  let string b s =
    nat b (String.length s);
    Buffer.add_string b s

  let array b f a =
    nat b (Array.length a);
    Array.iter (f b) a

  let list b f l =
    nat b (List.length l);
    List.iter (f b) l

  let pair f g b (x, y) = f b x; g b y

  let option b f o =
    bool b (Option.is_some o);
    Option.iter (f b) o

  let enum l b v = nat b (Option.get (List.find_index (( = ) v) l))
  let int_array b a = array b int a
  let i64_array b a = array b Buffer.add_int64_le a
  let contents = Buffer.contents
  let encode f = let b = create () in f b; contents b
end

module Dec = struct
  type t = { src : string; mutable pos : int; name : string }

  let of_string ?(name = "payload") ?(pos = 0) src = { src; pos; name }
  let left d = String.length d.src - d.pos

  let rec varint d acc shift =
    if d.pos >= String.length d.src || shift > 56 then
      corrupt "%s: bad number at byte %d" d.name d.pos;
    let c = Char.code (String.unsafe_get d.src d.pos) in
    d.pos <- d.pos + 1;
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else varint d acc (shift + 7)

  let nat d =
    match varint d 0 0 with
    | n when n >= 0 -> n
    | n -> corrupt "%s: negative number %d at byte %d" d.name n d.pos

  let int d =
    let u = varint d 0 0 in
    (u lsr 1) lxor -(u land 1)

  let bool d =
    match nat d with
    | 0 -> false
    | 1 -> true
    | k -> corrupt "%s: bad flag %d at byte %d" d.name k d.pos

  (* A count of things that each take a byte or more: no more than the
     bytes left, checked before anything is allocated. *)
  let count d =
    let n = nat d in
    if n > left d then corrupt "%s: count %d past the end at byte %d" d.name n d.pos;
    n

  let span d =
    let n = count d in
    let pos = d.pos in
    d.pos <- d.pos + n;
    (pos, n)

  let string d =
    let pos, n = span d in
    String.sub d.src pos n

  let array d f = Array.init (count d) (fun _ -> f d)
  let list d f = Array.to_list (array d f)

  let pair f g d = let x = f d in (x, g d)
  let option d f = if bool d then Some (f d) else None

  let enum l d =
    let k = nat d in
    match List.nth_opt l k with
    | Some v -> v
    | None -> corrupt "%s: bad enumeration value %d" d.name k

  let int_array d = array d int

  let i64_array d =
    array d (fun d ->
        if left d < 8 then corrupt "%s: truncated at byte %d" d.name d.pos;
        d.pos <- d.pos + 8;
        String.get_int64_le d.src (d.pos - 8))

  let finished d = d.pos = String.length d.src

  let whole ?pos ~name payload f =
    let d = of_string ~name ?pos payload in
    let v = f d in
    if not (finished d) then corrupt "%s: trailing bytes" name;
    v
end
