module Pages = Repro_common.Pages

let timer_base = 0xF000_0000
let uart_base = 0xF000_1000
let syscon_base = 0xF000_2000
let device_window = 0xF000_0000
let device_window_end = 0xF000_3000

type t = {
  ram : Bytes.t;
  dirty : Bytes.t;
  timer : Devices.Timer.t;
  uart : Devices.Uart.t;
  syscon : Devices.Syscon.t;
  mutable inject : Repro_faultinject.Faultinject.t option;
  mutable device_read_hook : (int -> int -> unit) option;
}

let create ~ram ~dirty =
  {
    ram;
    dirty;
    timer = Devices.Timer.create ();
    uart = Devices.Uart.create ();
    syscon = Devices.Syscon.create ();
    inject = None;
    device_read_hook = None;
  }

(* A fired bus fault surfaces as a bus error only under the Surface
   behavior; transient faults are counted and the access proceeds
   (modelling an ECC-corrected or retried transfer). *)
let bus_fault t site =
  match t.inject with
  | Some inj ->
    Repro_faultinject.Faultinject.fire inj site
    && Repro_faultinject.Faultinject.surfaces inj
  | None -> false

let ram_size t = Bytes.length t.ram
let in_ram t paddr n = paddr >= 0 && paddr + n <= Bytes.length t.ram

let is_ram t paddr = in_ram t paddr 4

exception Bus_error

let read32 t paddr =
  if bus_fault t Repro_faultinject.Faultinject.Bus_read then raise Bus_error
  else if in_ram t paddr 4 then
    Char.code (Bytes.get t.ram paddr)
    lor (Char.code (Bytes.get t.ram (paddr + 1)) lsl 8)
    lor (Char.code (Bytes.get t.ram (paddr + 2)) lsl 16)
    lor (Char.code (Bytes.get t.ram (paddr + 3)) lsl 24)
  else begin
    let v =
      if paddr >= timer_base && paddr < uart_base then
        Devices.Timer.read t.timer (paddr - timer_base)
      else if paddr >= uart_base && paddr < syscon_base then
        Devices.Uart.read t.uart (paddr - uart_base)
      else if paddr >= syscon_base && paddr < device_window_end then
        Devices.Syscon.read t.syscon (paddr - syscon_base)
      else raise Bus_error
    in
    (match t.device_read_hook with Some h -> h paddr v | None -> ());
    v
  end

let write32 t paddr v =
  if bus_fault t Repro_faultinject.Faultinject.Bus_write then raise Bus_error
  else if in_ram t paddr 4 then begin
    Bytes.set t.ram paddr (Char.chr (v land 0xFF));
    Bytes.set t.ram (paddr + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set t.ram (paddr + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set t.ram (paddr + 3) (Char.chr ((v lsr 24) land 0xFF));
    Pages.mark t.dirty paddr;
    Pages.mark t.dirty (paddr + 3)
  end
  else if paddr >= timer_base && paddr < uart_base then
    Devices.Timer.write t.timer (paddr - timer_base) v
  else if paddr >= uart_base && paddr < syscon_base then
    Devices.Uart.write t.uart (paddr - uart_base) v
  else if paddr >= syscon_base && paddr < device_window_end then
    Devices.Syscon.write t.syscon (paddr - syscon_base) v
  else raise Bus_error

let read8 t paddr =
  if in_ram t paddr 1 then
    if bus_fault t Repro_faultinject.Faultinject.Bus_read then raise Bus_error
    else Char.code (Bytes.get t.ram paddr)
  else (read32 t (paddr land lnot 3 land 0xFFFFFFFF) lsr (8 * (paddr land 3))) land 0xFF

let write8 t paddr v =
  if in_ram t paddr 1 then
    if bus_fault t Repro_faultinject.Faultinject.Bus_write then raise Bus_error
    else begin
      Bytes.set t.ram paddr (Char.chr (v land 0xFF));
      Pages.mark t.dirty paddr
    end
  else if paddr >= device_window && paddr < device_window_end then
    write32 t (paddr land lnot 3 land 0xFFFFFFFF) (v land 0xFF)
  else raise Bus_error

(* Both bytes are read even when one raises, so a halfword read always
   makes two Faultinject draws, as the pair of byte reads it replaced
   did. Their order cannot matter: both draws are at the [Bus_read]
   site, the read fails if either fires, and device reads have no side
   effects. Only the count of two draws is kept. *)
let read16 t paddr =
  let lo = match read8 t paddr with b -> b | exception Bus_error -> -1 in
  let hi = read8 t (paddr + 1) in
  if lo < 0 then raise Bus_error else lo lor (hi lsl 8)

let write16 t paddr v =
  write8 t paddr (v land 0xFF);
  write8 t (paddr + 1) ((v lsr 8) land 0xFF)

let tick t n = Devices.Timer.tick t.timer n
let irq_line t = Devices.Timer.irq_line t.timer
let halted t = Devices.Syscon.halted t.syscon
