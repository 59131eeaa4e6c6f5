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
let format_version = 4

module Codec = Repro_common.Codec
module Enc = Codec.Enc
module Dec = Codec.Dec

exception Corrupt = Codec.Corrupt
exception Load_error of { section : string; reason : string }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let load_error section fmt =
  Printf.ksprintf (fun reason -> raise (Load_error { section; reason })) fmt

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

(* Section [name] of [prev]. A capture adds its payload in place of an
   equal new one, so checkpoints share every section that did not
   change. *)
let previous prev name = Option.bind prev (fun p -> List.assoc_opt name p.sections)

let add ?prev t name payload =
  add_payload t name
    (if name = ram_section then Paged (Pages.split payload)
     else
       match previous prev name with
       | Some (Whole s as same) when String.equal s payload -> same
       | _ -> Whole payload)

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

(* The body is the framing — a section count, then per section a name,
   a payload length and, after the payload, the payload's checksum —
   with the payloads between. The header checksum folds the framing
   alone: each payload byte is under its section's checksum, each
   framing byte under the header's, and the header's still commits to
   every payload through the section checksums it covers. *)
let to_string t =
  let ordered = List.rev t.sections in
  let body = Enc.create () and framing = ref Codec.fnv_basis and from = ref 0 in
  (* folds the framing written since the last payload *)
  let framed () =
    framing := Codec.fnv_fold !framing (Buffer.sub body !from (Buffer.length body - !from))
  in
  Enc.nat body (List.length ordered);
  List.iter
    (fun (name, payload) ->
      Enc.string body name;
      let sum =
        match payload with
        | Paged ps ->
          Enc.nat body (Pages.length ps);
          framed ();
          Pages.fold (fun h p -> Buffer.add_string body p; Codec.fnv_fold h p) Codec.fnv_basis ps
        | Whole _ | Value _ ->
          let s = materialize payload in
          Enc.nat body (String.length s);
          framed ();
          Buffer.add_string body s;
          Codec.fnv1a32 s
      in
      from := Buffer.length body;
      Enc.nat body sum)
    ordered;
  framed ();
  let out = Buffer.create (Buffer.length body + 24) in
  Buffer.add_string out magic;
  Buffer.add_int64_le out (Int64.of_int format_version);
  Buffer.add_int64_le out (Int64.of_int !framing);
  Buffer.add_buffer out body;
  Buffer.contents out

let header_checksum s =
  if String.length s < 24 then
    load_error "container" "shorter than its header (%d bytes)" (String.length s);
  Int64.to_int (String.get_int64_le s 16)

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
  let sum = header_checksum s in
  if not (String.starts_with ~prefix:magic s) then load_error "container" "bad magic";
  let version = String.get_int64_le s 8 in
  if version <> Int64.of_int format_version then
    load_error "container" "format version %Ld, expected %d" version format_version;
  (* The body is decoded in place: payloads and RAM pages are cut
     straight from [s], and checksums fold over byte ranges of it. The
     framing folds up to each payload and from its end on. *)
  let d = Dec.of_string ~name:"body" ~pos:24 s in
  let framing = ref Codec.fnv_basis and from = ref 24 in
  let n = guard "container" (fun () -> Dec.count d) in
  let t = create () in
  for _ = 1 to n do
    let name = guard "container" (fun () -> Dec.string d) in
    guard name (fun () ->
        let pos, len = Dec.span d in
        framing := Codec.fnv_fold ~pos:!from ~len:(pos - !from) !framing s;
        from := pos + len;
        let stored = Dec.nat d in
        let computed = Codec.fnv_fold ~pos ~len Codec.fnv_basis s in
        if stored <> computed then
          corrupt "section checksum mismatch (stored %#x, computed %#x)"
            stored computed;
        add_payload t name
          (if name = ram_section then Paged (Pages.split ~pos ~len s)
           else Whole (String.sub s pos len)))
  done;
  if not (Dec.finished d) then
    load_error "container" "trailing bytes after last section";
  (* The framing checksum runs last so damage inside a section is
     attributed to that section first; what reaches this check is
     framing damage the section checksums cannot see (a flipped name
     byte that still parses, a rewritten length that re-frames
     cleanly). *)
  let actual = Codec.fnv_fold ~pos:!from !framing s in
  if sum <> actual then
    load_error "container" "framing checksum mismatch (stored %#x, computed %#x)"
      sum actual;
  t

let save_file path t = Repro_common.Atomicio.write path (to_string t)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e ->
    raise (Load_error { section = "container"; reason = e })

(* ---- machine-core capture ---- *)

(* An int-array section ([cpu], [env], [tlb], [timer], [stats]) holds
   a copy of the words and is encoded only when its bytes are asked
   for. A capture shares [prev]'s section when the words are equal,
   compared without encoding or allocating, and a restore reads the
   words of a captured section without decoding them. *)
type value += Ints of int array

let encode_ints = function Ints a -> Enc.encode (fun b -> Enc.int_array b a) | _ -> assert false

let add_ints ?prev t name a =
  add_payload t name
    (match previous prev name with
    | Some (Value (Ints b, _) as same) when b = a -> same
    | _ -> Value (Ints (Array.copy a), encode_ints))

let decode t name f = Dec.whole ~name (find t name) f

let ints t name =
  match List.assoc_opt name t.sections with
  | Some (Value (Ints a, _)) -> a
  | _ -> decode t name Dec.int_array

let capture_machine ?prev (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  let add name f = add ?prev t name (Enc.encode f) in
  add_ints ?prev t "cpu" (Cpu.save_words rt.Rt.cpu);
  add_ints ?prev t "env" ctx.Exec.env;
  add "host" (fun b ->
      Enc.int_array b ctx.Exec.regs;
      List.iter (Enc.bool b) [ ctx.Exec.cf; ctx.Exec.zf; ctx.Exec.sf; ctx.Exec.o_f ];
      Enc.int b ctx.Exec.poison_counter);
  add_payload t ram_section (Paged (Ram.capture ctx.Exec.ram));
  add_ints ?prev t "tlb" ctx.Exec.tlb;
  add_ints ?prev t "timer" (Devices.Timer.export rt.Rt.bus.Bus.timer);
  add "uart" (fun b -> Enc.string b (Devices.Uart.output rt.Rt.bus.Bus.uart));
  add "syscon" (fun b -> Enc.option b Enc.int (Devices.Syscon.halted rt.Rt.bus.Bus.syscon));
  Option.iter (fun inj -> add "inject" (fun b -> Enc.i64_array b (Fi.export inj))) rt.Rt.inject;
  add_ints ?prev t "stats" (Stats.to_array (Rt.stats rt))

let restore_machine (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  (try Cpu.load_words rt.Rt.cpu (ints t "cpu")
   with Invalid_argument e -> corrupt "cpu: %s" e);
  (* [env] and the softMMU [tlb] are plain words, written back whole *)
  let words name dst =
    let src = ints t name in
    if Array.length src <> Array.length dst then corrupt "%s: %d slots" name (Array.length src);
    Array.blit src 0 dst 0 (Array.length dst)
  in
  words "env" ctx.Exec.env;
  decode t "host" (fun d ->
      let regs = Dec.int_array d in
      if Array.length regs <> Array.length ctx.Exec.regs then
        corrupt "host: %d registers, machine has %d" (Array.length regs)
          (Array.length ctx.Exec.regs);
      Array.blit regs 0 ctx.Exec.regs 0 (Array.length regs);
      ctx.Exec.cf <- Dec.bool d;
      ctx.Exec.zf <- Dec.bool d;
      ctx.Exec.sf <- Dec.bool d;
      ctx.Exec.o_f <- Dec.bool d;
      ctx.Exec.poison_counter <- Dec.int d);
  (try Ram.restore ctx.Exec.ram (ram_pages t)
   with Invalid_argument e -> corrupt "ram: %s" e);
  words "tlb" ctx.Exec.tlb;
  (try Devices.Timer.import rt.Rt.bus.Bus.timer (ints t "timer")
   with Invalid_argument e -> corrupt "timer: %s" e);
  Devices.Uart.import rt.Rt.bus.Bus.uart (decode t "uart" Dec.string);
  Devices.Syscon.import rt.Rt.bus.Bus.syscon
    (decode t "syscon" (fun d -> Dec.option d Dec.int));
  (match (rt.Rt.inject, mem t "inject") with
  | None, false -> ()
  | Some inj, true -> (
    try Fi.import inj (decode t "inject" Dec.i64_array)
    with Invalid_argument e -> corrupt "inject: %s" e)
  | Some _, false -> corrupt "machine has a fault injector, snapshot has none"
  | None, true -> corrupt "snapshot has injector state, machine has none");
  (try Stats.load_array (Rt.stats rt) (ints t "stats")
   with Invalid_argument e -> corrupt "stats: %s" e);
  (* engine-transient runtime fields: between-TB defaults *)
  rt.Rt.pending_code_write <- false;
  rt.Rt.suppress_code_write <- false;
  rt.Rt.tb_override <- None;
  rt.Rt.fault_producers <- [||]
