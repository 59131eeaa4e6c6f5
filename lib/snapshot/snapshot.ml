(* Versioned, checksummed machine snapshots. See the interface for
   the container layout; the machine-core capture covers everything
   below the translation cache, which [Repro_dbt.System] layers on as
   further sections of the same container. *)

module Rt = Repro_tcg.Runtime
module Exec = Repro_x86.Exec
module Stats = Repro_x86.Stats
module Cpu = Repro_arm.Cpu
module Bus = Repro_machine.Bus
module Devices = Repro_machine.Devices
module Fi = Repro_faultinject.Faultinject
module Pages = Repro_common.Pages
module Ram = Repro_common.Ram

let magic = "DBTSNAP\x01"
let format_version = 3

exception Corrupt of string
exception Load_error of { section : string; reason : string }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let load_error section fmt =
  Printf.ksprintf (fun reason -> raise (Load_error { section; reason })) fmt

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

module Enc = struct
  type t = Buffer.t

  (* most sections are a few words; a capture encodes several *)
  let create () = Buffer.create 64
  let u64 b v = Buffer.add_int64_le b v
  let int b v = u64 b (Int64.of_int v)
  let bool b v = int b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let i64_array b a =
    int b (Array.length a);
    Array.iter (u64 b) a

  let int_pairs b l =
    int b (List.length l);
    List.iter
      (fun (x, y) ->
        int b x;
        int b y)
      l

  let contents = Buffer.contents
end

module Dec = struct
  (* Reads [src] from [base] to its end; messages count bytes from
     [base]. *)
  type t = { src : string; base : int; mutable pos : int; name : string }

  let at ~name src base = { src; base; pos = base; name }
  let of_string ?(name = "payload") src = at ~name src 0

  let u64 d =
    if d.pos + 8 > String.length d.src then
      corrupt "%s: truncated at byte %d" d.name (d.pos - d.base);
    let v = String.get_int64_le d.src d.pos in
    d.pos <- d.pos + 8;
    v

  let int d = Int64.to_int (u64 d)
  let bool d = int d <> 0

  (* A length-prefixed string's offset and length, skipped, not copied. *)
  let span d =
    let n = int d in
    if n < 0 || n > String.length d.src - d.pos then
      corrupt "%s: bad string length %d at byte %d" d.name n (d.pos - d.base);
    let pos = d.pos in
    d.pos <- d.pos + n;
    (pos, n)

  let string d =
    let pos, n = span d in
    String.sub d.src pos n

  let array d elt =
    let n = int d in
    if n < 0 || d.pos + (8 * n) > String.length d.src then
      corrupt "%s: bad array length %d at byte %d" d.name n (d.pos - d.base);
    Array.init n (fun _ -> elt d)

  let int_array d = array d int
  let i64_array d = array d u64

  let int_pairs d =
    Array.to_list
      (array d (fun d ->
           let x = int d in
           (x, int d)))
  let finished d = d.pos = String.length d.src
end

(* ---- the section container ---- *)

(* RAM is kept as pages so checkpoints can share the ones that did not
   change. A [Value] section is an OCaml value its owner captured,
   encoded each time its bytes are asked for. Every other section is
   one string. *)
type value = ..
type payload = Whole of string | Paged of Pages.t | Value of value * (value -> string)

let ram_section = "ram"

let materialize = function
  | Whole s -> s
  | Paged ps -> Pages.to_string ps
  | Value (v, encode) -> encode v

type t = { mutable sections : (string * payload) list (* reversed *) }

let create () = { sections = [] }
let copy t = { sections = t.sections }

let add_payload t name payload =
  if List.mem_assoc name t.sections then
    invalid_arg (Printf.sprintf "Snapshot.add: duplicate section %s" name);
  t.sections <- (name, payload) :: t.sections

(* Section [name] of [prev] when it holds exactly the bytes [same]
   accepts. A capture adds that string in place of an equal new one,
   so checkpoints share every section that did not change. *)
let reusable prev name same =
  match prev with
  | None -> None
  | Some p -> (
    match List.assoc_opt name p.sections with
    | Some (Whole s) when same s -> Some s
    | _ -> None)

let add ?prev t name payload =
  add_payload t name
    (if name = ram_section then Paged (Pages.split payload)
     else
       Whole (Option.value (reusable prev name (String.equal payload)) ~default:payload))

let add_value t name value ~encode = add_payload t name (Value (value, encode))

let value t name =
  match List.assoc_opt name t.sections with
  | Some (Value (v, _)) -> Some v
  | _ -> None

let find_opt t name = Option.map materialize (List.assoc_opt name t.sections)

let find t name =
  match find_opt t name with
  | Some p -> p
  | None -> corrupt "missing section %s" name

let mem t name = List.mem_assoc name t.sections
let names t = List.rev_map fst t.sections

let ram_pages t =
  match List.assoc_opt ram_section t.sections with
  | Some (Paged ps) -> ps
  | Some (Whole _ | Value _) -> assert false (* [add] splits the RAM section *)
  | None -> corrupt "missing section %s" ram_section

let to_string t =
  let body = Enc.create () in
  let ordered = List.rev t.sections in
  Enc.int body (List.length ordered);
  List.iter
    (fun (name, payload) ->
      Enc.string body name;
      (* per-section checksum (format v2): a flipped bit is attributed
         to the section it corrupts, not just "somewhere in the body" *)
      let sum =
        match payload with
        | Paged ps ->
          Enc.int body (Pages.length ps);
          Pages.fold
            (fun h p ->
              Buffer.add_string body p;
              fnv_fold h p)
            fnv_basis ps
        | Whole _ | Value _ ->
          let s = materialize payload in
          Enc.string body s;
          fnv1a32 s
      in
      Enc.int body sum)
    ordered;
  let body = Enc.contents body in
  let out = Buffer.create (String.length body + 24) in
  Buffer.add_string out magic;
  Buffer.add_int64_le out (Int64.of_int format_version);
  Buffer.add_int64_le out (Int64.of_int (fnv1a32 body));
  Buffer.add_string out body;
  Buffer.contents out

(* Loading is total over arbitrary byte strings: every failure mode —
   truncation, bit flips, bad lengths, version skew — surfaces as
   [Load_error] naming the innermost section being decoded ("container"
   for damage outside any section). The decoder primitives raise
   [Corrupt]; the handlers below translate, so no exception other than
   [Load_error] can escape. *)
let of_string s =
  let guard section f =
    try f () with
    | Corrupt reason -> raise (Load_error { section; reason })
    | Invalid_argument reason -> raise (Load_error { section; reason })
  in
  if String.length s < 24 then
    load_error "container" "shorter than its header (%d bytes)"
      (String.length s);
  if not (String.starts_with ~prefix:magic s) then load_error "container" "bad magic";
  let hdr = Dec.at ~name:"header" s 8 in
  let version = guard "container" (fun () -> Dec.int hdr) in
  if version <> format_version then
    load_error "container" "format version %d, expected %d" version
      format_version;
  let sum = guard "container" (fun () -> Dec.int hdr) in
  (* The body is decoded in place: payloads and RAM pages are cut
     straight from [s], and checksums fold over byte ranges of it. *)
  let d = Dec.at ~name:"body" s 24 in
  let n = guard "container" (fun () -> Dec.int d) in
  if n < 0 then load_error "container" "negative section count";
  let t = create () in
  for _ = 1 to n do
    let name = guard "container" (fun () -> Dec.string d) in
    guard name (fun () ->
        let pos, len = Dec.span d in
        let stored = Dec.int d in
        let computed = fnv_fold ~pos ~len fnv_basis s in
        if stored <> computed then
          corrupt "section checksum mismatch (stored %#x, computed %#x)"
            stored computed;
        add_payload t name
          (if name = ram_section then Paged (Pages.split ~pos ~len s)
           else Whole (String.sub s pos len)))
  done;
  if not (Dec.finished d) then
    load_error "container" "trailing bytes after last section";
  (* The whole-body checksum runs last so damage inside a section is
     attributed to that section first; what reaches this check is
     framing damage the per-section sums cannot see (a flipped name
     byte that still parses, a rewritten length that re-frames
     cleanly). *)
  let actual = fnv_fold ~pos:24 fnv_basis s in
  if sum <> actual then
    load_error "container" "body checksum mismatch (stored %#x, computed %#x)"
      sum actual;
  t

let save_file path t = Repro_common.Atomicio.write path (to_string t)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e ->
    raise (Load_error { section = "container"; reason = e })

(* ---- machine-core capture ---- *)

(* [Enc.int_array] into a buffer of exactly its size. *)
let ints a =
  let n = Array.length a in
  let b = Bytes.create (8 * (n + 1)) in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * (i + 1)) (Int64.of_int v)) a;
  Bytes.unsafe_to_string b

let dec_ints name payload =
  let d = Dec.of_string ~name payload in
  let a = Dec.int_array d in
  if not (Dec.finished d) then corrupt "%s: trailing bytes" name;
  a

(* [s] is [ints a], checked without encoding [a]. *)
let encodes_ints a s =
  let n = Array.length a in
  String.length s = 8 * (n + 1)
  && String.get_int64_le s 0 = Int64.of_int n
  &&
  let rec from i =
    i = n || (String.get_int64_le s (8 * (i + 1)) = Int64.of_int a.(i) && from (i + 1))
  in
  from 0

let add_ints ?prev t name a =
  add_payload t name
    (Whole (match reusable prev name (encodes_ints a) with Some s -> s | None -> ints a))

let capture_machine ?prev (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  add_ints ?prev t "cpu" (Cpu.save_words rt.Rt.cpu);
  add_ints ?prev t "env" ctx.Exec.env;
  let host = Enc.create () in
  Enc.int_array host ctx.Exec.regs;
  Enc.bool host ctx.Exec.cf;
  Enc.bool host ctx.Exec.zf;
  Enc.bool host ctx.Exec.sf;
  Enc.bool host ctx.Exec.o_f;
  Enc.int host ctx.Exec.poison_counter;
  add ?prev t "host" (Enc.contents host);
  add_payload t ram_section (Paged (Ram.capture ctx.Exec.ram));
  add_ints ?prev t "tlb" ctx.Exec.tlb;
  add_ints ?prev t "timer" (Devices.Timer.export rt.Rt.bus.Bus.timer);
  let uart = Enc.create () in
  Enc.string uart (Devices.Uart.output rt.Rt.bus.Bus.uart);
  add ?prev t "uart" (Enc.contents uart);
  let syscon = Enc.create () in
  (match Devices.Syscon.halted rt.Rt.bus.Bus.syscon with
  | None -> Enc.bool syscon false
  | Some code ->
    Enc.bool syscon true;
    Enc.int syscon code);
  add ?prev t "syscon" (Enc.contents syscon);
  (match rt.Rt.inject with
  | None -> ()
  | Some inj ->
    let b = Enc.create () in
    Enc.i64_array b (Fi.export inj);
    add ?prev t "inject" (Enc.contents b));
  add_ints ?prev t "stats" (Stats.to_array (Rt.stats rt))

let restore_machine (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  (try Cpu.load_words rt.Rt.cpu (dec_ints "cpu" (find t "cpu"))
   with Invalid_argument e -> corrupt "cpu: %s" e);
  (* [env] and the softMMU [tlb] are plain words, written back whole *)
  let words name dst =
    let src = dec_ints name (find t name) in
    if Array.length src <> Array.length dst then corrupt "%s: %d slots" name (Array.length src);
    Array.blit src 0 dst 0 (Array.length dst)
  in
  words "env" ctx.Exec.env;
  let host = Dec.of_string ~name:"host" (find t "host") in
  let regs = Dec.int_array host in
  if Array.length regs <> Array.length ctx.Exec.regs then
    corrupt "host: %d registers, machine has %d" (Array.length regs)
      (Array.length ctx.Exec.regs);
  Array.blit regs 0 ctx.Exec.regs 0 (Array.length regs);
  ctx.Exec.cf <- Dec.bool host;
  ctx.Exec.zf <- Dec.bool host;
  ctx.Exec.sf <- Dec.bool host;
  ctx.Exec.o_f <- Dec.bool host;
  ctx.Exec.poison_counter <- Dec.int host;
  if not (Dec.finished host) then corrupt "host: trailing bytes";
  (try Ram.restore ctx.Exec.ram (ram_pages t)
   with Invalid_argument e -> corrupt "ram: %s" e);
  words "tlb" ctx.Exec.tlb;
  (try Devices.Timer.import rt.Rt.bus.Bus.timer (dec_ints "timer" (find t "timer"))
   with Invalid_argument e -> corrupt "timer: %s" e);
  let uart = Dec.of_string ~name:"uart" (find t "uart") in
  Devices.Uart.import rt.Rt.bus.Bus.uart (Dec.string uart);
  let syscon = Dec.of_string ~name:"syscon" (find t "syscon") in
  Devices.Syscon.import rt.Rt.bus.Bus.syscon
    (if Dec.bool syscon then Some (Dec.int syscon) else None);
  (match (rt.Rt.inject, find_opt t "inject") with
  | None, None -> ()
  | Some inj, Some payload -> (
    let d = Dec.of_string ~name:"inject" payload in
    try Fi.import inj (Dec.i64_array d)
    with Invalid_argument e -> corrupt "inject: %s" e)
  | Some _, None -> corrupt "machine has a fault injector, snapshot has none"
  | None, Some _ -> corrupt "snapshot has injector state, machine has none");
  (try Stats.load_array (Rt.stats rt) (dec_ints "stats" (find t "stats"))
   with Invalid_argument e -> corrupt "stats: %s" e);
  (* engine-transient runtime fields: between-TB defaults *)
  rt.Rt.pending_code_write <- false;
  rt.Rt.suppress_code_write <- false;
  rt.Rt.tb_override <- None;
  rt.Rt.fault_producers <- [||]
