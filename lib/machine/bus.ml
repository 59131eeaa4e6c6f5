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

let device_of () paddr =
  if paddr >= timer_base && paddr < uart_base then Some (`Timer, paddr - timer_base)
  else if paddr >= uart_base && paddr < syscon_base then Some (`Uart, paddr - uart_base)
  else if paddr >= syscon_base && paddr < device_window_end then
    Some (`Syscon, paddr - syscon_base)
  else None

let read32 t paddr =
  if bus_fault t Repro_faultinject.Faultinject.Bus_read then Error ()
  else if in_ram t paddr 4 then
    Ok
      (Char.code (Bytes.get t.ram paddr)
      lor (Char.code (Bytes.get t.ram (paddr + 1)) lsl 8)
      lor (Char.code (Bytes.get t.ram (paddr + 2)) lsl 16)
      lor (Char.code (Bytes.get t.ram (paddr + 3)) lsl 24))
  else
    let observed v =
      (match t.device_read_hook with Some h -> h paddr v | None -> ());
      Ok v
    in
    match device_of () paddr with
    | Some (`Timer, off) -> observed (Devices.Timer.read t.timer off)
    | Some (`Uart, off) -> observed (Devices.Uart.read t.uart off)
    | Some (`Syscon, off) -> observed (Devices.Syscon.read t.syscon off)
    | None -> Error ()

let write32 t paddr v =
  if bus_fault t Repro_faultinject.Faultinject.Bus_write then Error ()
  else if in_ram t paddr 4 then begin
    Bytes.set t.ram paddr (Char.chr (v land 0xFF));
    Bytes.set t.ram (paddr + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set t.ram (paddr + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set t.ram (paddr + 3) (Char.chr ((v lsr 24) land 0xFF));
    Pages.mark t.dirty paddr;
    Pages.mark t.dirty (paddr + 3);
    Ok ()
  end
  else
    match device_of () paddr with
    | Some (`Timer, off) -> Ok (Devices.Timer.write t.timer off v)
    | Some (`Uart, off) -> Ok (Devices.Uart.write t.uart off v)
    | Some (`Syscon, off) -> Ok (Devices.Syscon.write t.syscon off v)
    | None -> Error ()

let read8 t paddr =
  if in_ram t paddr 1 then
    if bus_fault t Repro_faultinject.Faultinject.Bus_read then Error ()
    else Ok (Char.code (Bytes.get t.ram paddr))
  else
    match read32 t (paddr land lnot 3 land 0xFFFFFFFF) with
    | Ok w -> Ok ((w lsr (8 * (paddr land 3))) land 0xFF)
    | Error () -> Error ()

let write8 t paddr v =
  if in_ram t paddr 1 then
    if bus_fault t Repro_faultinject.Faultinject.Bus_write then Error ()
    else begin
      Bytes.set t.ram paddr (Char.chr (v land 0xFF));
      Pages.mark t.dirty paddr;
      Ok ()
    end
  else if paddr >= device_window && paddr < device_window_end then
    write32 t (paddr land lnot 3 land 0xFFFFFFFF) (v land 0xFF)
  else Error ()

let tick t n = Devices.Timer.tick t.timer n
let irq_line t = Devices.Timer.irq_line t.timer
let halted t = Devices.Syscon.halted t.syscon
