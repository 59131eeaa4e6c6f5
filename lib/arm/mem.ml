open Repro_common

type access = Fetch | Load | Store
type fault_kind = Translation | Permission | Alignment | Bus
type fault = { vaddr : Word32.t; access : access; kind : fault_kind }

let dfsr_status = function
  | Translation -> 5
  | Permission -> 13
  | Alignment -> 1
  | Bus -> 8

exception Fault of fault

let fault vaddr access kind = raise (Fault { vaddr; access; kind })

type width = W8 | W16 | W32

let aligned width vaddr =
  match width with W8 -> true | W16 -> vaddr land 1 = 0 | W32 -> vaddr land 3 = 0

type iface = {
  load : width -> privileged:bool -> Word32.t -> Word32.t;
  store : width -> privileged:bool -> Word32.t -> Word32.t -> unit;
  fetch : privileged:bool -> Word32.t -> Word32.t;
  flush_tlb : unit -> unit;
}

let flat ~size =
  let buf = Bytes.make size '\000' in
  let bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 in
  (* Alignment is checked before the range, as the MMU does. *)
  let check width access vaddr =
    if not (aligned width vaddr) then fault vaddr access Alignment
    else if vaddr < 0 || vaddr + bytes width > size then fault vaddr access Bus
  in
  (* Words as two halves: the int32 accessors would box. *)
  let read32 addr = Bytes.get_uint16_le buf addr lor (Bytes.get_uint16_le buf (addr + 2) lsl 16) in
  let load width ~privileged:_ vaddr =
    check width Load vaddr;
    match width with
    | W8 -> Bytes.get_uint8 buf vaddr
    | W16 -> Bytes.get_uint16_le buf vaddr
    | W32 -> read32 vaddr
  in
  let store width ~privileged:_ vaddr v =
    check width Store vaddr;
    match width with
    | W8 -> Bytes.set_uint8 buf vaddr (v land 0xFF)
    | W16 -> Bytes.set_uint16_le buf vaddr (v land 0xFFFF)
    | W32 ->
      Bytes.set_uint16_le buf vaddr (v land 0xFFFF);
      Bytes.set_uint16_le buf (vaddr + 2) ((v lsr 16) land 0xFFFF)
  in
  let fetch ~privileged:_ vaddr =
    check W32 Fetch vaddr;
    read32 vaddr
  in
  (buf, { load; store; fetch; flush_tlb = (fun () -> ()) })
