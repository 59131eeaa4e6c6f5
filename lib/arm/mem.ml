open Repro_common

type access = Fetch | Load | Store
type fault_kind = Translation | Permission | Alignment | Bus
type fault = { vaddr : Word32.t; access : access; kind : fault_kind }

let dfsr_status = function
  | Translation -> 5
  | Permission -> 13
  | Alignment -> 1
  | Bus -> 8

let pp_fault ppf { vaddr; access; kind } =
  Format.fprintf ppf "%s fault (%s) at %a"
    (match kind with
    | Translation -> "translation"
    | Permission -> "permission"
    | Alignment -> "alignment"
    | Bus -> "bus")
    (match access with Fetch -> "fetch" | Load -> "load" | Store -> "store")
    Word32.pp vaddr

type width = W8 | W16 | W32

type iface = {
  load : width -> privileged:bool -> Word32.t -> (Word32.t, fault) result;
  store : width -> privileged:bool -> Word32.t -> Word32.t -> (unit, fault) result;
  fetch : privileged:bool -> Word32.t -> (Word32.t, fault) result;
  flush_tlb : unit -> unit;
}

let flat ~size =
  let buf = Bytes.make size '\000' in
  let in_range addr n = addr >= 0 && addr + n <= size in
  let read32 addr =
    Char.code (Bytes.get buf addr)
    lor (Char.code (Bytes.get buf (addr + 1)) lsl 8)
    lor (Char.code (Bytes.get buf (addr + 2)) lsl 16)
    lor (Char.code (Bytes.get buf (addr + 3)) lsl 24)
  in
  let write32 addr v =
    Bytes.set buf addr (Char.chr (v land 0xFF));
    Bytes.set buf (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set buf (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set buf (addr + 3) (Char.chr ((v lsr 24) land 0xFF))
  in
  let read16 addr =
    Char.code (Bytes.get buf addr) lor (Char.code (Bytes.get buf (addr + 1)) lsl 8)
  in
  let write16 addr v =
    Bytes.set buf addr (Char.chr (v land 0xFF));
    Bytes.set buf (addr + 1) (Char.chr ((v lsr 8) land 0xFF))
  in
  let load width ~privileged:_ vaddr =
    match width with
    | W8 ->
      if in_range vaddr 1 then Ok (Char.code (Bytes.get buf vaddr))
      else Error { vaddr; access = Load; kind = Bus }
    | W16 ->
      if vaddr land 1 <> 0 then Error { vaddr; access = Load; kind = Alignment }
      else if in_range vaddr 2 then Ok (read16 vaddr)
      else Error { vaddr; access = Load; kind = Bus }
    | W32 ->
      if vaddr land 3 <> 0 then Error { vaddr; access = Load; kind = Alignment }
      else if in_range vaddr 4 then Ok (read32 vaddr)
      else Error { vaddr; access = Load; kind = Bus }
  in
  let store width ~privileged:_ vaddr v =
    match width with
    | W8 ->
      if in_range vaddr 1 then Ok (Bytes.set buf vaddr (Char.chr (v land 0xFF)))
      else Error { vaddr; access = Store; kind = Bus }
    | W16 ->
      if vaddr land 1 <> 0 then Error { vaddr; access = Store; kind = Alignment }
      else if in_range vaddr 2 then Ok (write16 vaddr (v land 0xFFFF))
      else Error { vaddr; access = Store; kind = Bus }
    | W32 ->
      if vaddr land 3 <> 0 then Error { vaddr; access = Store; kind = Alignment }
      else if in_range vaddr 4 then Ok (write32 vaddr v)
      else Error { vaddr; access = Store; kind = Bus }
  in
  let fetch ~privileged:_ vaddr =
    if vaddr land 3 <> 0 then Error { vaddr; access = Fetch; kind = Alignment }
    else if in_range vaddr 4 then Ok (read32 vaddr)
    else Error { vaddr; access = Fetch; kind = Bus }
  in
  (buf, { load; store; fetch; flush_tlb = (fun () -> ()) })
