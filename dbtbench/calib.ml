(* Host-speed calibration for the end-to-end timings.

   On a shared host the same work can run 30-50% slower for stretches
   of several seconds: neighbours on the same physical cores slow the
   process down without descheduling it, so process CPU time drifts
   with wall time and no statistic taken inside one run cancels it.
   The benchmark therefore times a fixed probe between requests and
   scales every timed window by [(nominal_ns / probe_ns) ** exponent],
   the probe time averaged over the window's two ends. A timing is then
   reported in seconds of a host running at its nominal speed.

   The probe is self-contained (it uses none of the repo's code), so a
   change to the DBT moves the workload's time but never the probe's.
   It mimics the DBT's inner loop: a dispatch loop over a decoded
   program, a register file, byte-addressed memory and a block-table
   lookup. *)

(* One probe: the fastest of [passes] back-to-back kernel passes of
   [kernel_steps] steps, so an interrupt landing in one pass does not
   skew it. *)
let kernel_steps = 60_000
let passes = 3

(* A probe's median time on the reference host (a 2.1 GHz x86-64 Xeon
   vCPU). Only the unit depends on it: a calibrated time is the wall
   time scaled to that host's nominal speed. *)
let nominal_ns = 800_000.

(* The DBT slows down more than the probe when the host does: over
   runs of [steady] and [cold] on the reference host, a run's wall time
   moved as the 1.5th power of its mean probe time (log-log). Scaling
   by that power rather than linearly cut the run-to-run spread of
   guest_mips from 0.096 to 0.055 (steady) and from 0.032 to 0.006
   (cold) on the same five runs; probes that stress memory or
   allocation instead needed the same power and did no better. *)
let exponent = 1.5

(* Windows of at least this much workload time end with a probe. *)
let window_ns = 100_000_000

let prog_len = 4096

let program =
  Array.init prog_len (fun i -> ((i * 2654435761) lsr 7) land 0xffff)

(* The kernel's state, allocated once and reset by every pass: a pass
   allocates nothing, so it never runs the GC on the workload's heap. *)
let regs = Array.make 16 0
let mem = Bytes.create 65536
let blocks = Array.make 1024 (-1)
let ring = Array.make 64 0

let kernel () =
  Array.fill regs 0 16 1;
  Bytes.fill mem 0 65536 '\001';
  Array.fill blocks 0 1024 (-1);
  let pc = ref 0 in
  for step = 1 to kernel_steps do
    let w = program.(!pc) in
    let rd = w land 15 and rs = (w lsr 4) land 15 in
    (match (w lsr 8) land 7 with
    | 0 -> regs.(rd) <- regs.(rd) + regs.(rs)
    | 1 -> regs.(rd) <- regs.(rd) lxor (regs.(rs) lsl 3)
    | 2 -> regs.(rd) <- Char.code (Bytes.unsafe_get mem (regs.(rs) land 0xffff))
    | 3 -> Bytes.unsafe_set mem (regs.(rd) land 0xffff) (Char.unsafe_chr (regs.(rs) land 0xff))
    | 4 -> regs.(rd) <- (regs.(rd) * 31) + step
    | 5 -> ring.(step land 63) <- regs.(rd) + regs.(rs)
    | 6 ->
      let key = !pc land 1023 in
      let v = blocks.(key) in
      if v < 0 then begin
        blocks.(key) <- step;
        regs.(rd) <- step
      end
      else regs.(rd) <- v + regs.(rs)
    | _ -> regs.(rd) <- if regs.(rs) land 1 = 0 then regs.(rd) - 1 else regs.(rd) + 1);
    pc := if regs.(rd) land 3 = 0 then (!pc + 1 + (w land 31)) mod prog_len else (!pc + 1) mod prog_len
  done;
  Array.fold_left ( + ) ring.(0) regs

(* The probe's wall time, in ns. *)
let probe () =
  let best = ref max_int in
  for _ = 1 to passes do
    let t0 = Util.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := min !best (Util.now_ns () - t0)
  done;
  !best

(* The factor that turns wall ns into calibrated ns, for a probe time
   (ns) taken around them. *)
let factor probe_ns = (nominal_ns /. probe_ns) ** exponent

(* A meter splits a timed stretch into windows separated by probes.
   [tick] books one timed piece of work and returns its window; once
   [finish] has taken the closing probe, [scale w] converts that
   window's wall ns into calibrated ns. *)
type meter = {
  mutable probes : int list;  (** newest first *)
  mutable count : int;
  mutable since : int;  (** workload ns since the last probe *)
}

let meter () = { probes = [ probe () ]; count = 1; since = 0 }

let cut m =
  m.probes <- probe () :: m.probes;
  m.count <- m.count + 1;
  m.since <- 0

let tick m ns =
  let w = m.count - 1 in
  m.since <- m.since + ns;
  if m.since >= window_ns then cut m;
  w

let finish m =
  if m.since > 0 then cut m;
  let p = Array.of_list (List.rev m.probes) in
  fun w ->
    let hi = min (w + 1) (Array.length p - 1) in
    factor (float_of_int (p.(w) + p.(hi)) /. 2.)

(* The probes' count and median ms, for the run's log. *)
let summary m =
  (m.count, Util.median (List.map (fun ns -> float_of_int ns /. 1e6) m.probes))

(* [calibrated f] runs [f] between two probes: its result and its
   calibrated wall time in seconds. *)
let calibrated f =
  let before = probe () in
  let t0 = Util.now_ns () in
  let r = f () in
  let ns = Util.now_ns () - t0 in
  let after = probe () in
  (r, float_of_int ns /. 1e9 *. factor (float_of_int (before + after) /. 2.))
