module Stats = Repro_x86.Stats

type event =
  | Translated
  | Prefetch_abort
  | Dispatched
  | Chained
  | Linked
  | Region_formed
  | Irq_delivered
  | Smc_flush
  | Entered
  | Ran

type t = {
  mutable event : event;
  mutable tb : Tb.t;
  mutable page : int;
  mutable privileged : bool;
  mutable clock : int;
  mutable guest : int;
  tags : int array;
  mutable host : int;
  mutable sync_ops : int;
  mutable irq_raised_at : int;
  mutable pc : int;
  cursor : int array;
  mutable sync_cursor : int;
}

let no_tb =
  { Tb.id = -1; guest_pc = 0; privileged = false; mmu_on = false;
    prog = Repro_x86.Prog.of_code ~code:[||] ~tags:[||]; exits = [||]; links = [||];
    guest_insns = [||]; guest_len = 0; fault_producers = [||]; injected = `None;
    prov = [||]; hot = 0; region_ids = [||] }

let create (stats : Stats.t) =
  { event = Dispatched; tb = no_tb; page = 0; privileged = false;
    clock = stats.guest_insns; guest = 0; tags = Array.make (Array.length stats.by_tag) 0;
    host = 0; sync_ops = 0; irq_raised_at = -1; pc = 0; cursor = Array.copy stats.by_tag;
    sync_cursor = stats.sync_ops }

let close w (stats : Stats.t) event tb ~page ~privileged =
  w.event <- event;
  w.tb <- tb;
  w.page <- page;
  w.privileged <- privileged;
  let host = ref 0 in
  for i = 0 to Array.length w.tags - 1 do
    w.tags.(i) <- stats.by_tag.(i) - w.cursor.(i);
    w.cursor.(i) <- stats.by_tag.(i);
    host := !host + w.tags.(i)
  done;
  w.host <- !host;
  w.guest <- stats.guest_insns - w.clock;
  w.clock <- stats.guest_insns;
  w.sync_ops <- stats.sync_ops - w.sync_cursor;
  w.sync_cursor <- stats.sync_ops

let set_irq_raised_at w at = w.irq_raised_at <- at
let set_pc w pc = w.pc <- pc
