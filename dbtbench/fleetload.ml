(* The [fleet] workload: dbt_fleet's chaos-drill shape served by the
   domain-parallel dispatcher.

   A warm gcc snapshot feeds [machines] supervised machines, [faulty]
   of them sabotaged by a fault plan, with shadow verification and
   periodic checkpoints. One closed-loop client submits an epoch of
   [machines] requests and waits for the barrier. Each drill is a fresh
   fleet serving [requests_per_drill] requests; drill [i] uses fault
   plan [i mod cycle] of the plans derived from the workload seed, so a
   run repeats every plan at least once it passes [cycle] drills, and
   each repeat must reproduce its plan's report byte for byte. *)

module D = Repro_dbt
module K = Repro_kernel.Kernel
module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Sup = Repro_resilience.Supervisor
module Scope = Repro_perfscope.Scope
module Histo = Repro_perfscope.Histo
module Snapshot = Repro_snapshot.Snapshot

let machines = 4
let faulty = 1
let target = 60_000
let warm = 20_000
let timer_period = 5_000
let requests_per_drill = 8
let cycle = 64
let mode = D.System.Rules D.Opt.full

let policy =
  {
    Sup.default_policy with
    Sup.deadline = 10 * target;
    checkpoint_every = 2_000;
    retry_budget = 8;
    shadow_depth = 4;
  }

let rates =
  [
    (Fi.Bus_read, 0.00005);
    (Fi.Bus_write, 0.00005);
    (Fi.Tb_flush, 0.00005);
    (Fi.Rule_corrupt, 0.002);
  ]

let plan_seed ~seed drill = (seed * cycle) + (drill mod cycle)

type setup = {
  prog : Progs.program;
  base : Snapshot.t;
  qemu_host_per_guest : float;
  layer_ms : (string * float) list;
}

(* Boot the program fault-free (injector present, every rate 0) to the
   warm point and capture the snapshot every fleet machine serves
   from. *)
let warm_snapshot image =
  let inject = Fi.create ~seed:1 ~rate:0.0 ~behavior:Fi.Surface () in
  let sys =
    D.System.create ~inject ~shadow_depth:policy.Sup.shadow_depth
      ~quarantine_threshold:policy.Sup.quarantine_threshold mode
  in
  K.load image (D.System.load_image sys);
  match
    (D.System.run ~max_guest_insns:warm ~checkpoint_every:warm sys)
      .Repro_tcg.Engine.reason
  with
  | `Insn_limit -> D.System.snapshot sys
  | _ -> Util.fail "fleet: the warm boot did not reach its snapshot point"

let setup () =
  let ms = ref [] in
  let timed name f = Util.timed ms name f in
  let image =
    timed "image.ms" (fun () -> Progs.cint_image ~timer_period "gcc" ~target)
  in
  let prog, qemu_host_per_guest =
    timed "reference.ms" (fun () ->
        let prog = Progs.reference "gcc" image in
        let sys = Progs.machine [] Progs.Qemu prog in
        let res = D.System.run sys in
        if not (Progs.matches prog sys res) then
          Util.fail "fleet: the qemu baseline run differs from the reference";
        (prog, Repro_x86.Stats.host_per_guest (D.System.stats sys)))
  in
  { prog; base = warm_snapshot image; qemu_host_per_guest; layer_ms = List.rev !ms }

type drill = {
  report : string;  (** [Fleet.metrics_json]: a pure function of the plan *)
  offered : int;
  served_ok : int;
  epochs : (int * int) list;  (** (wall ns, guest insns) per epoch *)
  latencies_ms : float list;  (** epoch start -> booking, per request *)
  serve_ns : int;  (** the whole [Parfleet.run] *)
  guest : int;  (** retired guest insns, every attempt *)
  host : int;  (** modelled host insns, every attempt *)
  phases : int array;  (** [host] split by perfscope phase *)
  checkpoints : int;
  restarts : int;
  timed_out : int;
  shed : int;
  breaker_trips : int;
  win : int;  (** the calibration window, see Calib *)
}

let sum = Util.sum

let drill setup ~seed ~domains ?gc i =
  let plan =
    Fi.Plan.make ~seed:(plan_seed ~seed i) ~machines ~faulty rates
  in
  let fleet =
    Res.Fleet.create ~plan
      ~config:{ Res.Fleet.machines; min_healthy = 1; policy }
      setup.base
  in
  let r = Res.Fleet.reference fleet in
  if
    r.Sup.r_code <> setup.prog.Progs.ref_code
    || r.Sup.r_uart_digest <> setup.prog.Progs.ref_uart
  then Util.fail "fleet: the fleet's fault-free reference differs from the interpreter's";
  let sups = List.init machines (Res.Fleet.supervisor fleet) in
  let work () = sum Sup.work_insns sups in
  let phases () =
    List.fold_left
      (fun acc s -> Array.map2 ( + ) acc (Scope.phase_vector (Sup.scope s)))
      (Array.make Repro_perfscope.Phase.n 0)
      sups
  in
  let work0 = work () and phases0 = phases () in
  let epochs = ref [] and latencies = ref [] and booked = ref 0 in
  let epoch_start = ref 0 and epoch_work = ref work0 in
  (* Runs on the coordinator after the barrier, once per request in
     request order: every request of the epoch completed before the
     first booking, so the epoch's work is final by then. *)
  let after_each () =
    let t = Util.now_ns () in
    (* drain the GC event rings often enough that a drill's events fit *)
    Option.iter (fun w -> Gcwatch.poll w ~counting:true) gc;
    latencies := Util.ms_of_ns (t - !epoch_start) :: !latencies;
    incr booked;
    if !booked mod machines = 0 then begin
      let w = work () in
      epochs := (t - !epoch_start, w - !epoch_work) :: !epochs;
      epoch_work := w;
      epoch_start := t
    end
  in
  let serve () =
    let t0 = Util.now_ns () in
    epoch_start := t0;
    Repro_parallel.Parfleet.run fleet ~domains ~after_each
      ~requests:requests_per_drill;
    Util.now_ns () - t0
  in
  let serve_ns =
    match gc with Some w -> Gcwatch.around w serve | None -> serve ()
  in
  let guest = work () - work0 in
  let phases = Array.map2 ( - ) (phases ()) phases0 in
  if not (Res.Fleet.final_verify fleet) then
    Util.fail "fleet: a surviving machine diverged from the reference";
  {
    report = Res.Fleet.metrics_json fleet;
    offered = Res.Fleet.offered fleet;
    served_ok = Res.Fleet.served_ok fleet;
    epochs = List.rev !epochs;
    latencies_ms = List.rev !latencies;
    serve_ns;
    guest;
    host = Array.fold_left ( + ) 0 phases;
    phases;
    checkpoints =
      sum (fun s -> Histo.count (Scope.checkpoint_interval (Sup.scope s))) sups;
    restarts = Res.Fleet.restarts fleet;
    timed_out = Res.Fleet.timed_out fleet;
    shed = Res.Fleet.shed fleet;
    breaker_trips = Res.Fleet.breaker_trips fleet;
    win = 0;
  }

(* Drills until [seconds] have passed and every plan has run once; a
   repeated plan must reproduce its first report exactly. With a
   [meter], each drill is booked as one timed piece of work. *)
let drills setup ~seed ~domains ~seconds ?gc ?meter ~state_dir () =
  let t0 = Util.now_ns () in
  let first = Hashtbl.create cycle in
  let rec go i acc =
    let elapsed = float_of_int (Util.now_ns () - t0) /. 1e9 in
    if i >= cycle && elapsed >= seconds then List.rev acc
    else begin
      let d = drill setup ~seed ~domains ?gc i in
      let d =
        match meter with Some m -> { d with win = Calib.tick m d.serve_ns } | None -> d
      in
      let ps = plan_seed ~seed i in
      if d.served_ok < d.offered then
        Printf.eprintf
          "bench: fleet plan %d served %d of %d requests (%d timed out, %d shed, %d restarts)\n%!"
          ps d.served_ok d.offered d.timed_out d.shed d.restarts;
      (match Hashtbl.find_opt first ps with
      | None ->
        Hashtbl.add first ps d.report;
        Progs.fingerprint ~state_dir
          ~name:(Printf.sprintf "fleet-plan%d" ps)
          d.report
      | Some r ->
        if r <> d.report then
          Util.fail "fleet: plan %d's drill report did not repeat" ps);
      go (i + 1) (d :: acc)
    end
  in
  go 0 []

(* The first [cycle] drills: one per plan, so their modelled figures
   are a pure function of the seed. *)
let one_cycle ds = List.filteri (fun i _ -> i < cycle) ds

(* [System.snapshot] / [System.restore] timed on the fleet base, on a
   machine of the supervisors' shape. *)
let snapshot_costs base ~reps =
  let m =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib base)
      ?inject:(D.System.snapshot_injector base)
      ~shadow_depth:policy.Sup.shadow_depth
      ~quarantine_threshold:policy.Sup.quarantine_threshold
      (D.System.snapshot_mode base)
  in
  let restore = ref [] and capture = ref [] in
  for _ = 1 to reps do
    let t0 = Util.now_ns () in
    D.System.restore m base;
    let t1 = Util.now_ns () in
    ignore (D.System.snapshot m);
    let t2 = Util.now_ns () in
    restore := Util.ms_of_ns (t1 - t0) :: !restore;
    capture := Util.ms_of_ns (t2 - t1) :: !capture
  done;
  ( Util.median !capture,
    Util.median !restore,
    String.length (Snapshot.to_string base) )
