module Devices = Repro_machine.Devices
module Bus = Repro_machine.Bus

let test_timer_period_and_ack () =
  let t = Devices.Timer.create () in
  Devices.Timer.write t 0x4 100;  (* period *)
  Devices.Timer.write t 0x0 1;    (* enable *)
  Devices.Timer.tick t 99;
  Alcotest.(check bool) "not yet" false (Devices.Timer.irq_line t);
  Devices.Timer.tick t 1;
  Alcotest.(check bool) "fired" true (Devices.Timer.irq_line t);
  Devices.Timer.write t 0xC 0;    (* ack *)
  Alcotest.(check bool) "cleared" false (Devices.Timer.irq_line t);
  Devices.Timer.tick t 250;
  Alcotest.(check bool) "fires again" true (Devices.Timer.irq_line t);
  Alcotest.(check int) "raise count" 2 (Devices.Timer.irqs_raised t)

let test_timer_disabled_never_fires () =
  let t = Devices.Timer.create () in
  Devices.Timer.write t 0x4 10;
  Devices.Timer.tick t 1000;
  Alcotest.(check bool) "disabled" false (Devices.Timer.irq_line t)

let test_uart_collects_output () =
  let u = Devices.Uart.create () in
  String.iter (fun c -> Devices.Uart.write u 0x0 (Char.code c)) "abc";
  Alcotest.(check string) "buffered" "abc" (Devices.Uart.output u);
  Alcotest.(check int) "status ready" 1 (Devices.Uart.read u 0x4)

let test_syscon_halt () =
  let s = Devices.Syscon.create () in
  Alcotest.(check (option int)) "running" None (Devices.Syscon.halted s);
  Devices.Syscon.write s 0 42;
  Alcotest.(check (option int)) "halted" (Some 42) (Devices.Syscon.halted s)

let test_bus_dispatch () =
  let bus =
    Bus.create ~ram:(Repro_common.Ram.create 4096)
  in
  Bus.write32 bus 0x100 0xCAFE;
  Alcotest.(check int) "ram readback" 0xCAFE (Bus.read32 bus 0x100);
  (match Bus.read32 bus 0x7FFF_0000 with
  | exception Bus.Bus_error -> ()
  | _ -> Alcotest.fail "unmapped physical address must bus-error");
  Bus.write32 bus Bus.uart_base (Char.code 'x');
  Alcotest.(check string) "uart via bus" "x" (Devices.Uart.output bus.Bus.uart);
  Bus.write32 bus Bus.syscon_base 9;
  Alcotest.(check (option int)) "halt via bus" (Some 9) (Bus.halted bus)

let suite =
  [
    ( "machine",
      [
        Alcotest.test_case "timer period/ack" `Quick test_timer_period_and_ack;
        Alcotest.test_case "timer disabled" `Quick test_timer_disabled_never_fires;
        Alcotest.test_case "uart buffers" `Quick test_uart_collects_output;
        Alcotest.test_case "syscon halts" `Quick test_syscon_halt;
        Alcotest.test_case "bus dispatch" `Quick test_bus_dispatch;
      ] );
  ]
