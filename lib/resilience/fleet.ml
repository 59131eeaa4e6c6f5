module D = Repro_dbt
module T = Repro_tcg
module Fi = Repro_faultinject.Faultinject
module Snapshot = Repro_snapshot.Snapshot
module Stats = Repro_x86.Stats
module Trace = Repro_observe.Trace
module Jsonx = Repro_observe.Jsonx
module Ruleset = Repro_rules.Ruleset
module Histo = Repro_perfscope.Histo

type config = {
  machines : int;
  min_healthy : int;
      (** shed new requests when fewer machines are serving *)
  policy : Supervisor.policy;
}

type t = {
  config : config;
  supervisors : Supervisor.t array;
  plan : Fi.Plan.t option;
  reference : Supervisor.reference;
  trace : Trace.t;  (* the fleet's own ring (request-counter clock) *)
  mutable known_quarantined : Ruleset.Ids.t;
  mutable boot_depot : int * int;
      (* (installed, pending) depot coverage of the boot machine the
         warm base was captured from; (0, 0) on a cold boot *)
  mutable offered : int;
  mutable served_ok : int;
  mutable timed_out : int;
  mutable shed : int;
  mutable failed : int;
  mutable breaker_trips : int;
  mutable final_checks : bool option array option;
}

let emit t ?(a = -1) ?b name =
  Trace.emit t.trace ?a:(if a >= 0 then Some a else None) ?b Trace.Fleet name

(* The fault-free ground truth every served result is verified
   against: a pristine machine (same shape, faults never armed) run
   once from the warm base to completion. *)
let compute_reference ~policy base =
  let m =
    D.System.create
      ~ram_kib:(D.System.snapshot_ram_kib base)
      ?inject:(D.System.snapshot_injector base)
      ~shadow_depth:policy.Supervisor.shadow_depth
      ~quarantine_threshold:policy.Supervisor.quarantine_threshold
      (D.System.snapshot_mode base)
  in
  D.System.restore m base;
  (match m.D.System.rt.T.Runtime.inject with
  | Some inj -> List.iter (fun s -> Fi.set_rate inj s 0.) Fi.all_sites
  | None -> ());
  let stats = D.System.stats m in
  let insns0 = stats.Stats.guest_insns in
  let res =
    D.System.run ~deadline:(insns0 + policy.Supervisor.deadline) m
  in
  match res.T.Engine.reason with
  | `Halted code ->
    {
      Supervisor.r_code = code;
      r_uart_digest = Digest.to_hex (Digest.string (D.System.uart_output m));
      r_insns = stats.Stats.guest_insns - insns0;
    }
  | `Deadline ->
    invalid_arg
      "Fleet.create: the fault-free reference run missed the deadline — \
       raise policy.deadline above the workload's length"
  | `Livelock _ | `Insn_limit ->
    invalid_arg "Fleet.create: the fault-free reference run failed"

let create ?plan ~config base =
  if config.machines <= 0 then invalid_arg "Fleet.create: machines <= 0";
  if config.min_healthy < 0 || config.min_healthy > config.machines then
    invalid_arg "Fleet.create: min_healthy outside [0, machines]";
  (match plan with
  | Some p when Fi.Plan.machines p <> config.machines ->
    invalid_arg "Fleet.create: plan sized for a different fleet"
  | _ -> ());
  let reference = compute_reference ~policy:config.policy base in
  (* the fleet always keeps its own event ring (dispatch, breaker and
     machine-death events), written only by the dispatching
     coordinator, so telemetry export never changes what was recorded *)
  let trace = Trace.create () in
  let supervisors =
    Array.init config.machines (fun id ->
        Supervisor.create ?plan ~id ~policy:config.policy base)
  in
  let t =
    {
    config;
    supervisors;
    plan;
    reference;
    trace;
    known_quarantined = Ruleset.Ids.empty;
      boot_depot = (0, 0);
    offered = 0;
    served_ok = 0;
    timed_out = 0;
    shed = 0;
    failed = 0;
      breaker_trips = 0;
      final_checks = None;
    }
  in
  (* the fleet's event clock is the request counter: a drill timeline
     is indexed by offered requests, not by any one machine's insn
     clock (the machines rewind theirs on every restore) *)
  Trace.set_clock trace (fun () -> t.offered);
  t

let reference t = t.reference
let machines t = t.config.machines
let supervisor t m = t.supervisors.(m)
let trace t = t.trace
(* The fleet-wide histogram is derived, not kept: Supervisor.serve
   already records every Served/Timed_out latency in its machine's
   histogram, and bucket-wise merge is associative and commutative —
   one recording site, one merge path. *)
let latency t =
  let into = Histo.create () in
  Array.iter (fun s -> Histo.merge ~into (Supervisor.latency s)) t.supervisors;
  into
let note_boot_depot t ~installed ~pending = t.boot_depot <- (installed, pending)

let serving_count t =
  Array.fold_left
    (fun n s -> if Health.serving (Supervisor.health s) then n + 1 else n)
    0 t.supervisors

let alive_count t =
  Array.fold_left
    (fun n s -> if Health.alive (Supervisor.health s) then n + 1 else n)
    0 t.supervisors

(* Fleet-wide circuit breaker over one machine: every rule it
   quarantined that the fleet has not seen yet is demoted on every
   other live machine before it can misfire there too. *)
let breaker_sweep t served_by =
  match (Supervisor.machine t.supervisors.(served_by)).D.System.ruleset with
  | None -> ()
  | Some rs ->
    let fresh = Ruleset.Ids.diff (Ruleset.health rs).Ruleset.quarantined t.known_quarantined in
    t.known_quarantined <- Ruleset.Ids.union fresh t.known_quarantined;
    Ruleset.Ids.iter
      (fun id ->
        t.breaker_trips <- t.breaker_trips + 1;
        emit t ~a:id ~b:served_by "breaker:quarantine";
        Array.iteri
          (fun i s ->
            if i <> served_by && Health.alive (Supervisor.health s) then begin
              let m = Supervisor.machine s in
              match m.D.System.ruleset with
              | Some rs' ->
                if Ruleset.quarantine_by_id rs' id then begin
                  T.Tb.Cache.flush m.D.System.cache;
                  Trace.emit (Supervisor.trace_ring s) ~a:id ~b:served_by
                    Trace.Fleet "breaker:quarantine"
                end
              | None -> ()
            end)
          t.supervisors)
      fresh

(* ---- dispatch primitives ----

   The dispatcher (Repro_parallel.Parfleet) computes outcomes on worker
   domains, then books them here on the coordinator, in request order:
   the offered counter (the fleet ring's clock), the ring events and
   the outcome counters. Breaker sweeps run at the epoch barrier, where
   no machine is serving. *)

let min_healthy t = t.config.min_healthy

(* Machine ids currently willing to serve, ascending — the epoch's
   serving set, fixed at the barrier. *)
let serving_ids t =
  let ids = ref [] in
  for i = Array.length t.supervisors - 1 downto 0 do
    if Health.serving (Supervisor.health t.supervisors.(i)) then
      ids := i :: !ids
  done;
  !ids

let account_shed t =
  let request = t.offered in
  t.offered <- t.offered + 1;
  t.shed <- t.shed + 1;
  Trace.emit t.trace ~a:request Trace.Request "req:shed"

let account_assigned t ~machine result =
  let request = t.offered in
  t.offered <- t.offered + 1;
  Trace.emit t.trace ~a:request ~b:machine Trace.Request "req:assign";
  match result with
  | Supervisor.Served _ -> t.served_ok <- t.served_ok + 1
  | Supervisor.Timed_out -> t.timed_out <- t.timed_out + 1
  | Supervisor.Rejected ->
    (* the machine left the serving set mid-epoch — count as shed *)
    t.shed <- t.shed + 1
  | Supervisor.Gave_up _ ->
    t.failed <- t.failed + 1;
    emit t ~a:machine "machine-dead"

(* Barrier-time circuit breaker: sweep every machine in id order, so
   the broadcast sequence is a function of quarantine state alone —
   not of which domain finished first. *)
let breaker_sweep_all t =
  for i = 0 to Array.length t.supervisors - 1 do
    breaker_sweep t i
  done

(* The drill's exit criterion: every surviving machine, faults
   disarmed, reproduces the fault-free reference bit-identically. *)
let final_verify t =
  let checks =
    Array.map (fun s -> Supervisor.verify_clean s t.reference) t.supervisors
  in
  t.final_checks <- Some checks;
  Array.for_all (function Some false -> false | _ -> true) checks

let offered t = t.offered
let served_ok t = t.served_ok
let timed_out t = t.timed_out
let shed t = t.shed
let failed t = t.failed
let breaker_trips t = t.breaker_trips

let restarts t =
  Array.fold_left
    (fun n s -> n + Health.restarts (Supervisor.health s))
    0 t.supervisors

let backoff_insns t =
  Array.fold_left (fun n s -> n + Supervisor.backoff_total s) 0 t.supervisors

let availability t =
  if t.offered = 0 then 1.0 else float_of_int t.served_ok /. float_of_int t.offered

let quarantined_rules t = Ruleset.Ids.elements t.known_quarantined

(* The drill's quarantine verdicts outlive the drill: fold them into a
   persistent depot's health section so every later warm boot starts
   with those rules already demoted. *)
let depot_writeback t depot =
  D.System.depot_quarantine_rules depot (quarantined_rules t)

(* Deterministic metrics document: everything here is a function of
   the fleet seed, the base snapshot and the request count, so CI can
   diff two same-seed drills byte-for-byte. Wall-clock and other
   run-environment facts belong under the caller's "volatile" key. *)
let metrics_json t =
  let machine_json i s =
    let h = Supervisor.health s in
    let m = Supervisor.machine s in
    let final =
      match t.final_checks with
      | None -> Jsonx.str "unchecked"
      | Some checks -> (
        match checks.(i) with
        | None -> Jsonx.str "dead"
        | Some true -> Jsonx.str "pass"
        | Some false -> Jsonx.str "fail")
    in
    Jsonx.obj
      [
        ("id", Jsonx.int (Supervisor.id s));
        ("faulty",
         Jsonx.bool
           (match t.plan with
           | Some p -> Fi.Plan.is_faulty p i
           | None -> false));
        ("state", Jsonx.str (Health.state_name (Health.state h)));
        ("strikes", Jsonx.int (Health.strikes h));
        ("crashes", Jsonx.int (Health.crashes h));
        ("restarts", Jsonx.int (Health.restarts h));
        ("served", Jsonx.int (Supervisor.served s));
        ("timeouts", Jsonx.int (Supervisor.timeouts s));
        ("wrong_results", Jsonx.int (Supervisor.wrong_results s));
        ("surfaced_crashes", Jsonx.int (Supervisor.surfaced_crashes s));
        ("backoff_insns", Jsonx.int (Supervisor.backoff_total s));
        ("rung", Jsonx.str (D.System.rung_name (D.System.rung_floor m)));
        ("quarantined_rules",
         Jsonx.arr
           (match m.D.System.ruleset with
           | Some rs -> List.map Jsonx.int (Ruleset.quarantined_ids rs)
           | None -> []));
        ("trace",
         let ring = Supervisor.trace_ring s in
         Jsonx.obj
           [
             ("total", Jsonx.int (Trace.total ring));
             ("dropped", Jsonx.int (Trace.dropped ring));
           ]);
        ("depot",
         let installed, pending = D.System.depot_coverage m in
         Jsonx.obj
           [
             ("installed", Jsonx.int installed);
             ("pending", Jsonx.int pending);
           ]);
        ("final_check", final);
      ]
  in
  Jsonx.obj
    [
      ("machines", Jsonx.int t.config.machines);
      ("min_healthy", Jsonx.int t.config.min_healthy);
      ("plan",
       match t.plan with
       | None -> Jsonx.obj []
       | Some p ->
         Jsonx.obj
           [
             ("seed", Jsonx.int (Fi.Plan.seed p));
             ("faulty",
              Jsonx.arr (List.map Jsonx.int (Fi.Plan.faulty_machines p)));
           ]);
      ("reference",
       Jsonx.obj
         [
           ("code", Jsonx.int t.reference.Supervisor.r_code);
           ("insns", Jsonx.int t.reference.Supervisor.r_insns);
           ("uart_md5", Jsonx.str t.reference.Supervisor.r_uart_digest);
         ]);
      ("offered", Jsonx.int t.offered);
      ("served_ok", Jsonx.int t.served_ok);
      ("timed_out", Jsonx.int t.timed_out);
      ("shed", Jsonx.int t.shed);
      ("failed", Jsonx.int t.failed);
      ("availability", Jsonx.float (availability t));
      ("restarts", Jsonx.int (restarts t));
      ("backoff_insns", Jsonx.int (backoff_insns t));
      ("breaker_trips", Jsonx.int t.breaker_trips);
      ("quarantined_rules",
       Jsonx.arr (List.map Jsonx.int (quarantined_rules t)));
      ("depot",
       let installed, pending = t.boot_depot in
       Jsonx.obj
         [
           ("installed", Jsonx.int installed);
           ("pending", Jsonx.int pending);
         ]);
      ("serving", Jsonx.int (serving_count t));
      ("alive", Jsonx.int (alive_count t));
      ("all_verified",
       match t.final_checks with
       | None -> Jsonx.str "unchecked"
       | Some checks ->
         Jsonx.bool
           (Array.for_all (function Some false -> false | _ -> true) checks));
      ("latency", Histo.to_json (latency t));
      ("per_machine",
       Jsonx.arr (Array.to_list (Array.mapi machine_json t.supervisors)));
    ]
